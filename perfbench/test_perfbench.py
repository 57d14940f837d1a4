"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _read_all(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = gen.write_jobs(workload, 7, str(tmp_path / "a"))
    b = gen.write_jobs(workload, 7, str(tmp_path / "b"))
    c = gen.write_jobs(workload, 8, str(tmp_path / "c"))
    assert [j[:2] for j in a] == [j[:2] for j in b] == [j[:2] for j in c]
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")
    assert _read_all(tmp_path / "a") != _read_all(tmp_path / "c")


@pytest.mark.parametrize("seed", range(20))
def test_objectives_parse_and_write_negative_terms_with_minus(seed):
    from esgain.symexpr import parse_expr
    for workload in gen.WORKLOADS:
        for _, _, cfg in gen.make_jobs(workload, seed):
            text = cfg["scheme"]["h"]
            assert "+ -" not in text and "--" not in text
            parse_expr(text, dim=2 if cfg["scheme"]["kind"] == "planar" else 1)


def test_metric_names_and_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    for m in declared:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert UNIT.fullmatch(m["unit"])
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [row[:3] for row in layers.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)


def test_self_time_subtracts_child_spans():
    spans = [["outer", -1, 0.0, 10.0], ["inner", 0, 1.0, 4.0],
             ["inner", 0, 5.0, 6.0], ["leaf", 1, 2.0, 3.0]]
    calls, self_s = layers.span_totals(spans)
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert self_s == pytest.approx({"outer": 6.0, "inner": 3.0, "leaf": 1.0})


def test_closed_form_check_matches_library():
    from esgain.contraction import build_ledger
    from esgain.metaopt import solve_strategy3_closed_form
    from esgain.symexpr import Domain1D, parse_expr
    text = gen.make_jobs("certify", 3)[0][2]["scheme"]["h"]
    ledger = build_ledger(parse_expr(text), Domain1D(-1.0, 1.0), x_star=0.0)
    sol = solve_strategy3_closed_form(ledger, 0.01, 0.02)
    a, eta = checks.closed_form_gains(text, 0.01, 0.02)
    assert sol.gains["a"] == pytest.approx(a, rel=1e-6)
    assert sol.gains["eta"] == pytest.approx(eta, rel=1e-6)

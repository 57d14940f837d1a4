"""End-to-end tests of the batch command-line interface."""
import contextlib
import copy
import hashlib
import io
import json
import os
import pathlib
import re
import tempfile
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import esgain
from esgain.cli import main
from esgain.symexpr import parse_expr, differentiate, eval_expr

WORKED_H_TEXT = "-cos(x) + 0.16666666666666666*x^3"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# one small valid config per subcommand
BASE = {
    "tune": {"scheme": {"kind": "basic1d", "h": WORKED_H_TEXT,
                        "gains": {"a": 0.2, "eta": 0.01}},
             "ledger": {"domain": [-1.0, 1.0], "x_star": 0.0},
             "tuning": {"strategy": 3, "delta1": 0.01, "delta2": 0.01}},
    "simulate": {"scheme": {"kind": "basic1d", "h": WORKED_H_TEXT,
                            "gains": {"a": 0.2, "eta": 0.2}},
                 "sim": {"horizon_periods": 2, "x0": [0.5]}},
    "perfmap": {"scheme": {"h": WORKED_H_TEXT},
                "sim": {"a_points": 2, "p_points": 2, "horizon_periods": 5}},
    "average": {"scheme": {"kind": "basic1d", "h": WORKED_H_TEXT,
                           "gains": {"a": 0.5, "eta": 0.25}, "avg_order": 2}},
    "verify": {"scheme": {"kind": "basic1d", "h": WORKED_H_TEXT,
                          "gains": {"a": 0.3, "eta": 0.3}}},
}


def edited(command, **blocks):
    """The base config of `command` with some blocks' keys replaced; a block
    or key given as None is dropped."""
    cfg = copy.deepcopy(BASE[command])
    for name, keys in blocks.items():
        if keys is None:
            del cfg[name]
            continue
        block = dict(cfg.get(name, {}), **keys)
        cfg[name] = {k: v for k, v in block.items() if v is not None}
    return cfg


def run_main(argv):
    """(exit code, stderr lines) of one in-process `main` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def write_config(path, data):
    path.write_text(json.dumps(data, indent=1))
    return str(path)


def tune_config(tmp_path, **tuning):
    return write_config(tmp_path / "tune.json", edited("tune", tuning=tuning))


class TestTune:
    def test_closed_form_gains_in_artifact(self, tmp_path):
        cfg = tune_config(tmp_path)
        out = tmp_path / "out"
        assert main(["tune", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "tune.json").read_text())
        assert float(payload["gains"]["a"]) == pytest.approx(0.209, abs=3e-3)
        assert float(payload["gains"]["eta"]) == pytest.approx(0.01, abs=1e-6)
        assert float(payload["consistency"]["p_value"]) == pytest.approx(1.104,
                                                                         abs=2e-3)
        assert payload["consistency"]["p_near_unity"] is True

    def test_artifact_embeds_hash_and_version(self, tmp_path):
        cfg = tune_config(tmp_path)
        out = tmp_path / "out"
        main(["tune", "--config", cfg, "--out", str(out)])
        payload = json.loads((out / "tune.json").read_text())
        with open(cfg) as fh:
            want = hashlib.sha256(fh.read().encode()).hexdigest()
        assert payload["config_sha256"] == want
        assert payload["version"] == esgain.__version__

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tune_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["tune", "--config", cfg, "--out", str(out1)])
        main(["tune", "--config", cfg, "--out", str(out2)])
        assert (out1 / "tune.json").read_bytes() == (out2 / "tune.json").read_bytes()

    def test_infeasible_exits_three(self, tmp_path, capsys):
        cfg = tune_config(tmp_path, method="numeric",
                          delta1=1e-12, delta2=1e-12)
        code = main(["tune", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "infeasible"

    def test_frequency_target(self, tmp_path):
        cfg = tune_config(tmp_path, target="frequency", a=0.209, eta=0.01)
        out = tmp_path / "out"
        assert main(["tune", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "tune.json").read_text())
        assert float(payload["omega"]) == pytest.approx(0.477, abs=1e-3)
        lit = float(payload["diagnostics"]["literal_stationary_omega"])
        assert lit == pytest.approx(0.239, abs=1e-3)


class TestAverage:
    def test_degree_two_coefficient(self, tmp_path):
        cfg = write_config(tmp_path / "avg.json", {
            "scheme": {"kind": "basic1d", "h": WORKED_H_TEXT,
                       "gains": {"a": 0.5, "eta": 0.25}, "avg_order": 2},
        })
        out = tmp_path / "out"
        assert main(["average", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "average.json").read_text())
        p = float(payload["p"])
        assert p == pytest.approx(0.5, rel=1e-12)
        g2 = parse_expr(payload["averaged"]["2"][0])
        h1 = differentiate(parse_expr(WORKED_H_TEXT))
        for y in np.linspace(-0.9, 0.9, 11):
            assert eval_expr(g2, [y]) == pytest.approx(
                -p / 2.0 * eval_expr(h1, [y]), abs=1e-12)
        listing = (out / "average.txt").read_text()
        assert "degree 2, component 0" in listing


class TestSimulate:
    def test_basic_run_writes_trajectory_and_metrics(self, tmp_path):
        cfg = write_config(tmp_path / "sim.json", {
            "scheme": {"kind": "basic1d", "h": WORKED_H_TEXT,
                       "gains": {"a": 0.2, "eta": 0.2}},
            "sim": {"horizon_periods": 30, "x0": [0.5]},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "simulate.json").read_text())
        assert "metrics" in payload
        assert float(payload["metrics"]["sup_full_vs_averaged"]) >= 0.0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,state0"

    def test_overflow_exits_four(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "boom.json", {
            "scheme": {"kind": "basic1d", "h": "x^3",
                       "gains": {"a": 5.0, "eta": 50.0}},
            "sim": {"horizon_periods": 50, "x0": [2.0], "metrics": False},
        })
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "o")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "overflow"


class TestOverflow:
    def test_huge_optimum_exits_four(self, tmp_path, capsys):
        # the objective overflows at the declared optimum while the ledger
        # is built; that is a numeric overflow, not a crash
        cfg = write_config(tmp_path / "huge.json", {
            "scheme": {"kind": "basic1d", "h": "0.5*x^2 + 0.1*x^4",
                       "gains": {"a": 0.2, "eta": 0.01}},
            "ledger": {"domain": [-1.0, 1.0], "x_star": 1e200},
            "tuning": {"strategy": 3, "delta1": 0.01, "delta2": 0.01},
        })
        code = main(["tune", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "overflow"


class TestVerify:
    def test_failed_invariant_exits_five(self, tmp_path, monkeypatch):
        # a residual that does not fall with the averaging order fails the check
        monkeypatch.setattr("esgain.cli.autonomy_residual",
                            lambda *args, **kwargs: types.SimpleNamespace(exponent=1.0))
        cfg = write_config(tmp_path / "v.json", BASE["verify"])
        out = tmp_path / "out"
        code, lines = run_main(["verify", "--config", cfg, "--out", str(out)])
        assert code == 5
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "verify" and err["exit_code"] == 5
        payload = json.loads((out / "verify.json").read_text())
        assert payload["passed"] is False
        assert payload["checks"]["residual_order"] is False

    def test_empty_scheme_config_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "empty.json", {})
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_basic_scheme_passes(self, tmp_path):
        cfg = write_config(tmp_path / "v.json", {
            "scheme": {"kind": "basic1d", "h": WORKED_H_TEXT,
                       "gains": {"a": 0.3, "eta": 0.3}},
        })
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["passed"] is True
        assert payload["checks"]["averaged_matches_reference"] is True


class TestPerfmap:
    def test_small_map_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "pm.json", {
            "scheme": {"h": WORKED_H_TEXT},
            "sim": {"a_range": [0.1, 0.5], "p_range": [0.5, 2.0],
                    "a_points": 3, "p_points": 3, "horizon_periods": 40},
        })
        out = tmp_path / "out"
        assert main(["perfmap", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "perfmap.csv").read_text().splitlines()
        assert lines[0] == "a,p,speed,error,feasible"
        assert len(lines) == 10
        payload = json.loads((out / "perfmap.json").read_text())
        assert payload["cells"] == 9


class TestConfigHandling:
    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["tune", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["tune", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("sim", [
        {"a_points": 0},
        {"p_points": 0},
        {"a_range": [0.5, 0.1]},
        {"p_range": [-1.0, 2.0]},
        {"x0": "abc"},
        {"x_star": "abc"},
    ], ids=["a_points_zero", "p_points_zero", "a_range_decreasing",
            "p_range_not_positive", "x0_not_a_number", "x_star_not_a_number"])
    def test_malformed_perfmap_block_exits_two(self, tmp_path, capsys, sim):
        cfg = write_config(tmp_path / "pm.json", {
            "scheme": {"h": WORKED_H_TEXT},
            "sim": dict({"a_points": 2, "p_points": 2, "horizon_periods": 5}, **sim),
        })
        code = main(["perfmap", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config"
        assert not (tmp_path / "o" / "perfmap.csv").exists()

    def test_x0_of_wrong_length_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sim.json", {
            "scheme": {"kind": "basic1d", "h": WORKED_H_TEXT,
                       "gains": {"a": 0.2, "eta": 0.2}},
            "sim": {"horizon_periods": 2, "x0": [0.5, 0.1, 0.2]},
        })
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config"
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    @pytest.mark.parametrize("sim", [
        {"dt": 0.0},
        {"dt": -0.01},
        {"dt": "fast"},
        {"horizon_periods": -2},
        {"horizon_periods": "long"},
        {"horizon_periods": 0.001},
        {"dt": 1e-12},
    ], ids=["dt_zero", "dt_negative", "dt_not_a_number", "horizon_negative",
            "horizon_not_a_number", "horizon_below_one_step", "too_many_steps"])
    def test_malformed_simulate_timing_exits_two(self, tmp_path, capsys, sim):
        cfg = write_config(tmp_path / "sim.json", {
            "scheme": {"kind": "basic1d", "h": WORKED_H_TEXT,
                       "gains": {"a": 0.2, "eta": 0.2}},
            "sim": dict({"horizon_periods": 2, "x0": [0.5]}, **sim),
        })
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config"
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_non_finite_number_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('{"scheme": {"kind": "basic1d", "h": "x^2", '
                       '"gains": {"a": NaN, "eta": 0.1}}}')
        code = main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command,cfg", [
        # library errors that used to escape main with a traceback
        ("tune", edited("tune", scheme={"h": "cos(x)"})),
        ("tune", edited("tune", ledger={"domain": [1.0, -1.0]})),
        ("tune", edited("tune", tuning={"strategy": 5})),
        ("tune", edited("tune", tuning={"strategy": 1})),
        ("tune", edited("tune", tuning={"delta1": -0.01})),
        ("tune", edited("tune", scheme={"h": "0.5*x^2"})),
        ("simulate", edited("simulate", scheme={"kind": "quadratic"})),
        ("simulate", edited("simulate", scheme={"kind": "filtered1d", "gains": {
            "a": 0.33, "eta": 0.01, "gamma": 3.8}})),
        ("average", edited("average", scheme={"avg_order": 99})),
        ("average", edited("average", scheme={"convention": "v-zero-mean"})),
        # raw casts of config values
        ("tune", edited("tune", tuning={"strategy": "abc"})),
        ("tune", edited("tune", ledger={"x_star": "abc"})),
        ("average", edited("average", scheme={"avg_order": "x"})),
        ("tune", edited("tune", tuning={"method": "numeric", "grid_points": 0})),
        ("tune", edited("tune", tuning={"target": "frequency", "a": "abc", "eta": 0.01})),
        ("tune", edited("tune", ledger={"domain": [-1.0, "abc"]})),
        # an unknown block used to be ignored
        ("average", edited("average", averaging={"order": 2})),
        # missing fields
        ("simulate", edited("simulate", scheme={"h": None})),
        ("tune", edited("tune", tuning=None)),
    ], ids=["concave_objective", "reversed_domain", "strategy_five",
            "strategy_one_without_delta", "negative_delta1",
            "degenerate_third_derivative", "unknown_kind", "filtered_without_mu",
            "avg_order_too_high", "unknown_convention", "strategy_not_a_number",
            "x_star_not_a_number", "avg_order_not_a_number", "grid_points_zero",
            "frequency_gain_not_a_number", "domain_end_not_a_number", "unknown_block",
            "missing_objective", "missing_tuning_block"])
    def test_probed_config_exits_two(self, tmp_path, command, cfg):
        path = write_config(tmp_path / "cfg.json", cfg)
        code, lines = run_main([command, "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config"


# values a mutation puts in place of a config value or block; none selects
# strategy 1, 2 or 4 or a long horizon
POOL = [None, True, -1, 0, 0.5, 1e300, "abc", "", [], {}, [0.5, 0.1]]


def _objects(node, path=()):
    """Paths of a config's JSON objects, the root first."""
    yield path
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _objects(value, path + (key,))


@st.composite
def mutated(draw, command):
    """The base config of `command` with one key dropped, one unknown key or
    block added, or one value or block replaced by an item of POOL."""
    cfg = copy.deepcopy(BASE[command])
    obj = cfg
    for key in draw(st.sampled_from(list(_objects(cfg)))):
        obj = obj[key]
    action = draw(st.sampled_from(["drop", "add", "replace"] if obj else ["add"]))
    if action == "add":
        obj["unknown"] = draw(st.sampled_from(POOL))
    else:
        key = draw(st.sampled_from(sorted(obj)))
        if action == "drop":
            del obj[key]
        else:
            obj[key] = draw(st.sampled_from(POOL))
    return cfg


class TestContract:
    @pytest.mark.parametrize("command", sorted(BASE))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_config_keeps_the_contract(self, command, data):
        cfg = data.draw(mutated(command))
        # without a sim block perfmap maps its default 400 cells over 300
        # periods, about a minute of work
        assume(command != "perfmap" or cfg.get("sim", {}) != {})
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(pathlib.Path(tmp) / "cfg.json", cfg)
            code, lines = run_main([command, "--config", path,
                                    "--out", os.path.join(tmp, "out")])
        assert code in {0, 2, 3, 4, 5}
        if code:
            assert len(lines) == 1
            assert json.loads(lines[0])["exit_code"] == code

    def test_readme_example_config_tunes(self, tmp_path):
        text = README.read_text()
        example = re.search(r"Example config:\s*```json\n(.*?)```", text, re.S).group(1)
        cfg = write_config(tmp_path / "readme.json", json.loads(example))
        out = tmp_path / "out"
        assert main(["tune", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "tune.json").read_text())["gains"]

"""End-to-end tests of the batch command-line interface."""
import contextlib
import copy
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import esgain
from esgain import cli
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


def fresh_python(*args):
    """A completed run of a fresh interpreter with esgain importable."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(esgain.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


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

    @pytest.mark.parametrize("tuning", [{}, {"method": "numeric"}, {"target": "filtered"}],
                             ids=["closed_form", "numeric", "filtered"])
    def test_budget_holds_the_two_bounded_terms(self, tmp_path, tuning):
        cfg = tune_config(tmp_path, **tuning)
        out = tmp_path / "out"
        assert main(["tune", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "tune.json").read_text())
        assert sorted(payload["budget"]) == ["delta1", "delta2"]
        # only a tuner that reports the fine-tuning factor p is checked for it
        assert ("consistency" in payload) == ("p" in payload["gains"])

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

    def test_x_star_on_the_domain_end_writes_one_line(self, tmp_path):
        # warnings print straight to a fresh interpreter's stderr, ahead of
        # the one JSON line, so only a subprocess shows them
        cfg = write_config(tmp_path / "tune.json", edited(
            "tune", ledger={"x_star": 1.0}, tuning={"strategy": 1, "delta": 0.05}))
        proc = fresh_python("-m", "esgain.cli", "tune", "--config", cfg,
                            "--out", str(tmp_path / "o"))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert "a_in_domain" in json.loads(lines[0])["message"]

    @pytest.mark.parametrize("tuning", [
        {"strategy": 1, "delta": 0.05},
        {"strategy": 2},
        {"strategy": 3},
        {"strategy": 3, "method": "numeric"},
        {"strategy": 4, "delta": 0.5},
        {"target": "filtered"},
        {"target": "frequency", "a": 0.2, "eta": 0.01},
    ], ids=["s1", "s2", "s3_closed_form", "s3_numeric", "s4", "filtered", "frequency"])
    def test_x_star_past_the_domain_end_exits_two(self, tmp_path, tuning):
        # every tuner reads kappa = h''(x*), which no ledger holds past its domain
        cfg = write_config(tmp_path / "tune.json",
                           edited("tune", ledger={"x_star": 2.0}, tuning=tuning))
        code, lines = run_main(["tune", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config"
        assert "x_star 2.0" in err["message"] and "[-1.0, 1.0]" in err["message"]
        assert not (tmp_path / "o" / "tune.json").exists()

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

    def test_filtered_components_parse_back_at_dim_three(self, tmp_path):
        scheme = {"kind": "filtered1d", "avg_order": 3,
                  "gains": {"a": 0.3, "eta": 0.02, "mu": 0.05, "gamma": 1.0}}
        cfg = write_config(tmp_path / "avg.json", edited("average", scheme=scheme))
        out = tmp_path / "out"
        assert main(["average", "--config", cfg, "--out", str(out)]) == 0
        averaged = json.loads((out / "average.json").read_text())["averaged"]
        s = esgain.SchemeInstance("filtered1d", parse_expr(WORKED_H_TEXT), a=0.3, eta=0.02,
                                  mu=0.05, gamma=1.0)
        res = esgain.average(esgain.scheme_graded_field(s, 3), 3, convention="u-zero-mean")
        ys = [list(y) for y in np.random.default_rng(8).uniform(-0.9, 0.9, (20, 3))]
        for degree, texts in averaged.items():
            for text, e in zip(texts, res.g_exprs(int(degree)), strict=True):
                assert [eval_expr(parse_expr(text, dim=3), y) for y in ys] \
                    == [eval_expr(e, y) for y in ys]

    @pytest.mark.parametrize("scheme", [
        {"kind": "planar", "h": "0.5*x1^2 + 0.5*x2^2", "avg_order": 8},
        {"kind": "filtered1d", "avg_order": 8,
         "gains": {"a": 0.3, "eta": 0.02, "mu": 0.05, "gamma": 1.0}},
        {"kind": "basic1d", "m": 3, "avg_order": 10},
    ], ids=["planar_8", "filtered1d_8", "basic1d_m3_10"])
    def test_order_past_the_derivative_cap_exits_two_before_expanding(
            self, tmp_path, monkeypatch, scheme):
        def refuse(*args):
            raise AssertionError("the graded field was built")
        monkeypatch.setattr("esgain.cli.scheme_graded_field", refuse)
        cfg = write_config(tmp_path / "avg.json", edited("average", scheme=scheme))
        out = tmp_path / "out"
        code, lines = run_main(["average", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config"
        assert "scheme.avg_order" in err["message"]
        assert not (out / "average.json").exists()

    def test_order_at_the_derivative_cap_averages(self, tmp_path):
        # m = 3, order 9 reads h^(6), the last derivative the cap allows
        cfg = write_config(tmp_path / "avg.json",
                           edited("average", scheme={"m": 3, "avg_order": 9}))
        out = tmp_path / "out"
        assert main(["average", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "average.json").read_text())
        assert payload["order"] == 9
        assert sorted(payload["averaged"], key=int) == [str(d) for d in range(1, 10)]

    def test_cap_refuses_the_orders_past_the_sixth_derivative(self):
        # a basic1d or plant1d field holds h^(k) at degree m + k n, so the
        # orders that need h^(7) or beyond are exactly those >= m + 7 n
        for m in range(1, 5):
            for n in range(1, 4):
                s = esgain.SchemeInstance("basic1d", parse_expr("x^2"), a=0.5, eta=0.25,
                                          m=m, n=n)
                for order in range(1, 40):
                    blk = cli.Block("scheme", {"avg_order": order})
                    if order >= m + 7 * n:
                        with pytest.raises(cli.ConfigError):
                            cli._avg_order(blk, s)
                    else:
                        assert cli._avg_order(blk, s) == order


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

    @pytest.mark.parametrize("edit", [
        {"sim": {"avg_order": 8}},
        {"sim": {"avg_order": 1}},
        {"scheme": {"m": 2}, "sim": {"avg_order": 2}},
    ], ids=["past_the_cap", "below_m_plus_n", "m_two_at_order_two"])
    def test_averaging_order_refused_exits_two_before_integrating(
            self, tmp_path, monkeypatch, edit):
        def refuse(*args):
            raise AssertionError("the trajectory was integrated")
        monkeypatch.setattr("esgain.cli.integrate", refuse)
        cfg = write_config(tmp_path / "sim.json", edited("simulate", **edit))
        out = tmp_path / "out"
        code, lines = run_main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config"
        assert "sim.avg_order" in err["message"]
        assert not (out / "trajectory.csv").exists()

    def test_default_order_is_m_plus_n(self, tmp_path):
        # at m = 2 the metrics need the degree-3 averaged system
        cfg = write_config(tmp_path / "sim.json", edited("simulate", scheme={"m": 2}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert "metrics" in json.loads((out / "simulate.json").read_text())

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

    def test_overflow_through_cos_exits_four(self, tmp_path, capsys):
        # the state reaches inf within an RK4 step and the next stage takes
        # cos of it: an overflow, not a math domain error
        cfg = write_config(tmp_path / "boom.json", {
            "scheme": {"kind": "basic1d", "h": "cos(x) - 0.5*x^4",
                       "gains": {"a": 0.5, "eta": 2.0}},
            "sim": {"x0": [3.0]},
        })
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "overflow" and "t = 0.219911" in err["message"]


class TestOverflow:
    def test_huge_optimum_exits_four(self, tmp_path):
        # the objective overflows near the declared optimum while the ledger
        # is built; that is a numeric overflow, not a crash. The domain holds
        # x_star, as a ledger's domain must. A fresh interpreter prints any
        # numpy warning ahead of the one JSON line
        cfg = write_config(tmp_path / "huge.json", {
            "scheme": {"kind": "basic1d", "h": "0.5*x^2 + 0.1*x^4",
                       "gains": {"a": 0.2, "eta": 0.01}},
            "ledger": {"domain": [-1.0, 1e200], "x_star": 1e200},
            "tuning": {"strategy": 3, "delta1": 0.01, "delta2": 0.01},
        })
        proc = fresh_python("-m", "esgain.cli", "tune", "--config", cfg,
                            "--out", str(tmp_path / "o"))
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
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

    @pytest.mark.parametrize("grading", [{"m": 3}, {"n": 2}], ids=["m3", "n2"])
    def test_grading_without_a_reference_exits_two(self, tmp_path, grading):
        cfg = write_config(tmp_path / "v.json", edited("verify", scheme=grading))
        out = tmp_path / "out"
        code, lines = run_main(["verify", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config" and "m = n = 1" in err["message"]
        assert not (out / "verify.json").exists()

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
        # metrics compare the degree-(m + n) averaged system, past these orders
        ("simulate", edited("simulate", sim={"avg_order": 1})),
        ("simulate", edited("simulate", scheme={"m": 2}, sim={"avg_order": 2})),
        ("average", edited("average", scheme={"avg_order": 99})),
        ("average", edited("average", scheme={"convention": "v-zero-mean"})),
        # raw casts of config values
        ("tune", edited("tune", tuning={"strategy": "abc"})),
        ("tune", edited("tune", ledger={"x_star": "abc"})),
        ("average", edited("average", scheme={"avg_order": "x"})),
        ("tune", edited("tune", tuning={"target": "frequency", "a": "abc", "eta": 0.01})),
        ("tune", edited("tune", ledger={"domain": [-1.0, "abc"]})),
        # an unknown block used to be ignored
        ("average", edited("average", averaging={"order": 2})),
        # the Taylor depth follows from the averaging order and is not a key
        ("average", edited("average", scheme={"taylor_order": 6})),
        # tuning.method alone picks the strategy-3 model; the grading keys are gone
        ("tune", edited("tune", tuning={"method": "numeric", "m": 3})),
        ("tune", edited("tune", tuning={"method": "numeric", "n": 1})),
        # the grid is fixed, and every gains tune writes its consistency report
        ("tune", edited("tune", tuning={"method": "numeric", "grid_points": 200})),
        ("tune", edited("tune", tuning={"consistency": False})),
        # missing fields
        ("simulate", edited("simulate", scheme={"h": None})),
        ("tune", edited("tune", tuning=None)),
        # counts past the caps, refused before anything is allocated
        ("perfmap", edited("perfmap", sim={"a_points": 10 ** 20})),
        ("perfmap", edited("perfmap", sim={"a_points": 1001, "p_points": 1000})),
    ], ids=["concave_objective", "reversed_domain", "strategy_five",
            "strategy_one_without_delta", "negative_delta1",
            "degenerate_third_derivative", "unknown_kind", "filtered_without_mu",
            "sim_avg_order_below_m_plus_n", "sim_m_two_at_order_two",
            "avg_order_too_high", "unknown_convention", "strategy_not_a_number",
            "x_star_not_a_number", "avg_order_not_a_number",
            "frequency_gain_not_a_number", "domain_end_not_a_number", "unknown_block",
            "taylor_order", "tuning_m", "tuning_n", "grid_points", "consistency",
            "missing_objective", "missing_tuning_block", "map_points_past_numpy",
            "map_cells_over_cap"])
    def test_probed_config_exits_two(self, tmp_path, command, cfg):
        path = write_config(tmp_path / "cfg.json", cfg)
        code, lines = run_main([command, "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config"

    @pytest.mark.parametrize("command", sorted(BASE))
    def test_out_naming_a_file_exits_two(self, tmp_path, command):
        path = write_config(tmp_path / "cfg.json", BASE[command])
        out = tmp_path / "taken"
        out.write_text("")
        code, lines = run_main([command, "--config", path, "--out", str(out)])
        assert code == 2
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config"
        assert out.read_text() == ""


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

    def test_readme_plane_config_maps_and_tunes(self, tmp_path):
        # the README's gain-plane config, on a smaller plane and horizon
        text = README.read_text()
        plane = json.loads(re.search(r"with `plane.json`:\s*```json\n(.*?)```",
                                     text, re.S).group(1))
        plane["sim"].update(a_points=3, p_points=2, horizon_periods=5)
        cfg = write_config(tmp_path / "plane.json", plane)
        out = tmp_path / "plane"
        assert main(["perfmap", "--config", cfg, "--out", str(out)]) == 0
        assert main(["tune", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "perfmap.csv").read_text().count("\n") == 1 + 3 * 2
        gains = json.loads((out / "tune.json").read_text())["gains"]
        assert float(gains["a"]) == pytest.approx(0.2084, abs=1e-3)
        assert float(gains["p"]) == pytest.approx(1.104, abs=1e-3)


class TestTuneSharedTables:
    def test_strategy_order_keeps_tune_json_bytes(self, tmp_path):
        # strategies 1, 2 and 4 share one objective's remainder tables within
        # a process; the artifacts must not depend on which job built them
        tunings = {1: {"strategy": 1, "delta": 0.02},
                   2: {"strategy": 2, "delta1": 0.01, "delta2": 0.01},
                   4: {"strategy": 4, "delta": 0.5}}
        configs = {s: write_config(tmp_path / f"s{s}.json", dict(BASE["tune"], tuning=t))
                   for s, t in tunings.items()}
        outputs = {}
        for order in ((1, 2, 4), (4, 2, 1)):
            esgain.metaopt._remainder_tables.cache_clear()
            for s in order:
                out = tmp_path / f"{''.join(map(str, order))}-s{s}"
                assert main(["tune", "--config", configs[s], "--out", str(out)]) == 0
                outputs.setdefault(s, set()).add((out / "tune.json").read_bytes())
        assert all(len(texts) == 1 for texts in outputs.values())


class TestConfigDigest:
    def test_jobs_leave_openssl_unloaded(self, tmp_path):
        # the digest comes from CPython's built-in sha256 module; hashlib would
        # load OpenSSL's libcrypto, about 3.4 MB of every job's resident memory
        for command, cfg in BASE.items():
            write_config(tmp_path / f"{command}.json", cfg)
        proc = fresh_python(
            "-c", "import json, sys\n"
            "from esgain.cli import main\n"
            "codes = [main([c, '--config', f'{sys.argv[1]}/{c}.json',\n"
            "               '--out', f'{sys.argv[1]}/{c}']) for c in sys.argv[2:]]\n"
            "print(json.dumps([codes, '_hashlib' in sys.modules]))\n",
            str(tmp_path), *BASE)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0] * len(BASE), False]
        for command in BASE:
            want = hashlib.sha256((tmp_path / f"{command}.json").read_bytes()).hexdigest()
            payload = json.loads((tmp_path / command / f"{command}.json").read_text())
            assert payload["config_sha256"] == want

    @pytest.mark.parametrize("head", [b"", b"\xef\xbb\xbf"], ids=["crlf", "utf8_bom_crlf"])
    def test_digest_is_the_file_bytes(self, tmp_path, head):
        # a config read as text was hashed after newline translation, so a
        # CRLF file got its LF twin's digest; a UTF-8 byte-order mark, which
        # text-mode JSON refused (exit 2), is now skipped by the parse and
        # hashed with the rest of the file
        text = json.dumps(BASE["tune"], indent=1).replace("\n", "\r\n")
        cfg = tmp_path / "tune.json"
        cfg.write_bytes(head + text.encode())
        out = tmp_path / "out"
        assert main(["tune", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "tune.json").read_text())
        assert payload["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        lf = tmp_path / "lf.json"
        lf.write_text(json.dumps(BASE["tune"], indent=1))
        assert main(["tune", "--config", str(lf), "--out", str(tmp_path / "lf")]) == 0
        assert payload["gains"] == json.loads((tmp_path / "lf" / "tune.json").read_text())["gains"]

    def test_without_the_builtin_module_hashlib_gives_the_digest(self, tmp_path):
        cfg = write_config(tmp_path / "tune.json", BASE["tune"])
        proc = fresh_python(
            "-c", "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from esgain import cli\n"
            "print(cli.RunConfig.load(sys.argv[1]).sha256, '_hashlib' in sys.modules)\n",
            cfg)
        assert proc.returncode == 0, proc.stderr
        want = hashlib.sha256(pathlib.Path(cfg).read_bytes()).hexdigest()
        assert proc.stdout.split() == [want, "True"]

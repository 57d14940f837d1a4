"""Output checks for the benchmark's jobs.

Each check reads the artifacts a job wrote and returns None when they are
right, or a one-line reason. The checks avoid the code path being timed:
the closed-form gains are recomputed from the objective text with numpy
finite differences, trajectories are read back from CSV, and sampled
gain-map cells are re-integrated one at a time through the scalar
`integrate(scheme_rhs(...))` path rather than the map's vectorized RK4.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

STEPS_PER_PERIOD = 200      # the CLI's default dt is period / 200
STATE_DIM = {"basic1d": 1, "planar": 2, "filtered1d": 3, "plant1d": 2}


def numpy_objective(text: str):
    """Evaluate a 1-D objective of the config grammar with numpy."""
    code = compile(text.replace("^", "**"), "<objective>", "eval")
    return lambda x: eval(code, {"__builtins__": {}}, {"cos": np.cos, "exp": np.exp, "x": x})


def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _positive(value) -> bool:
    v = float(value)
    return math.isfinite(v) and v > 0.0


def closed_form_gains(h_text: str, delta1: float, delta2: float) -> tuple:
    """a = sqrt(8 delta1 h''(0) / sup|h'''|), eta = delta2 / sup|h| on [-1, 1]."""
    h = numpy_objective(h_text)
    xs = np.linspace(-1.0, 1.0, 200001)
    s = 1e-3
    h3 = (h(xs + 2 * s) - 2 * h(xs + s) + 2 * h(xs - s) - h(xs - 2 * s)) / (2 * s ** 3)
    kappa = float((h(s) - 2 * h(0.0) + h(-s)) / s ** 2)
    return (math.sqrt(8.0 * delta1 * kappa / float(np.max(np.abs(h3)))),
            delta2 / float(np.max(np.abs(h(xs)))))


def check_tune(cfg: dict, out_dir: str) -> str | None:
    art = _read_json(out_dir, "tune.json")
    tuning = cfg["tuning"]
    if tuning.get("target") == "frequency":
        return None if _positive(art["omega"]) else "omega is not positive"
    gains = art["gains"]
    if not all(_positive(gains[k]) for k in ("a", "eta")):
        return f"gains are not positive: {gains}"
    if tuning.get("strategy") == 3:
        a, eta = closed_form_gains(cfg["scheme"]["h"], tuning["delta1"], tuning["delta2"])
        got_a, got_eta = float(gains["a"]), float(gains["eta"])
        if abs(got_a - a) > 1e-4 * a or abs(got_eta - eta) > 1e-4 * eta:
            return f"closed form gives a={a:.6g} eta={eta:.6g}, tune wrote {gains}"
    return None


def budget_over_tolerance(cfg: dict, out_dir: str) -> int:
    """Budget entries of a strategy-2 answer above the requested tolerance."""
    tuning = cfg.get("tuning", {})
    if tuning.get("strategy") != 2:
        return 0
    budget = _read_json(out_dir, "tune.json")["budget"]
    return sum(float(budget[k]) > tuning[k] for k in ("delta1", "delta2"))


def check_average(cfg: dict, out_dir: str) -> str | None:
    art = _read_json(out_dir, "average.json")
    order = cfg["scheme"]["avg_order"]
    if sorted(art["averaged"]) != [str(i) for i in range(1, order + 1)]:
        return f"averaged degrees {sorted(art['averaged'])} for order {order}"
    with open(os.path.join(out_dir, "average.txt")) as fh:
        if not fh.read().strip():
            return "average.txt is empty"
    return None


def check_verify(cfg: dict, out_dir: str) -> str | None:
    art = _read_json(out_dir, "verify.json")
    return None if art["passed"] is True else f"verify failed: {art['checks']}"


def simulate_steps(cfg: dict) -> tuple:
    """(steps per trajectory, trajectories integrated) for a simulate job."""
    scheme = cfg["scheme"]
    omega = scheme["gains"].get("omega") if scheme["kind"] == "plant1d" else None
    period = 2.0 * math.pi / (omega or 1.0)
    steps = int(round(cfg["sim"]["horizon_periods"] * period / (period / STEPS_PER_PERIOD)))
    # basic1d with metrics also integrates its averaged and ideal systems
    with_metrics = scheme["kind"] == "basic1d" and cfg["sim"].get("metrics", True)
    return steps, 3 if with_metrics else 1


def check_simulate(cfg: dict, out_dir: str) -> str | None:
    steps, _ = simulate_steps(cfg)
    dim = STATE_DIM[cfg["scheme"]["kind"]]
    data = np.loadtxt(os.path.join(out_dir, "trajectory.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    if data.shape != (steps + 1, dim + 1):
        return f"trajectory shape {data.shape}, expected {(steps + 1, dim + 1)}"
    if not np.all(np.isfinite(data)):
        return "trajectory has non-finite states"
    art = _read_json(out_dir, "simulate.json")
    if "metrics" in art and not all(math.isfinite(float(v)) for v in art["metrics"].values()):
        return f"non-finite error metrics {art['metrics']}"
    return None


def read_perfmap(out_dir: str) -> np.ndarray:
    return np.loadtxt(os.path.join(out_dir, "perfmap.csv"), delimiter=",",
                      skiprows=1, ndmin=2)


def check_perfmap(cfg: dict, out_dir: str) -> str | None:
    sim = cfg["sim"]
    rows = read_perfmap(out_dir)
    if rows.shape != (sim["a_points"] * sim["p_points"], 5):
        return f"perfmap shape {rows.shape}"
    feasible = rows[:, 4] == 1
    if not np.all(np.isfinite(rows[feasible, 3])) or np.any(np.isfinite(rows[~feasible, 3])):
        return "error column disagrees with the feasible column"
    return None


def reintegrate_cells(cfg: dict, rows: np.ndarray, picks) -> list:
    """Re-run sampled (a, p) cells through the scalar integrator; return a
    reason for every cell whose error or feasibility disagrees with the map."""
    from esgain.schemes import SchemeInstance, scheme_rhs
    from esgain.sim import SimError, integrate
    from esgain.symexpr import parse_expr

    sim = cfg["sim"]
    h = parse_expr(cfg["scheme"]["h"])
    x0, x_star = float(sim["x0"]), float(sim["x_star"])
    dt = 2.0 * math.pi / STEPS_PER_PERIOD
    n_steps = sim["horizon_periods"] * STEPS_PER_PERIOD
    escape = 1e6 * max(1.0, abs(x0 - x_star))
    tail = int(0.8 * n_steps)
    bad = []
    for i in picks:
        a, p, _, error, feasible = (float(v) for v in rows[i])
        s = SchemeInstance("basic1d", h, a, eta=p * a ** 3)
        try:
            with np.errstate(over="ignore", invalid="ignore"):   # escaping cells overflow
                xs = integrate(scheme_rhs(s), [x0], n_steps * dt, dt).states[:, 0]
            dev = np.abs(xs - x_star)
            ok = bool(np.max(dev) <= escape)
            err = float(np.max(dev[tail + 1:] if tail else dev))
        except SimError:
            ok, err = False, math.inf
        if ok != bool(feasible) or (ok and abs(err - error) > 1e-9 * abs(error) + 1e-12):
            bad.append(f"cell a={a:.6g} p={p:.6g}: map error={error!r} feasible={int(feasible)},"
                       f" scalar error={err!r} feasible={int(ok)}")
    return bad


CHECKS = {"tune": check_tune, "average": check_average, "verify": check_verify,
          "simulate": check_simulate, "perfmap": check_perfmap}


def same_artifacts(dir_a: str, dir_b: str) -> str | None:
    """None when both job output directories hold byte-identical files."""
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return f"artifact sets differ: {names} vs {sorted(os.listdir(dir_b))}"
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return f"{name} differs between reruns"
    return None

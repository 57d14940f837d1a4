"""Seeded job generator for the benchmark.

Every job is one `esgain` CLI call: a subcommand plus a JSON config file.
The program under test only ever sees the config files written here; the
seed decides the objective coefficients and the tolerances.

All objectives come from one family that is convex at the declared
optimum x* = 0 and has a nonzero third derivative there:

    h(x) = -A cos(x) + B x^3 + C x^4 + D (exp(x) - 1 - x)

with h'(0) = 0, h''(0) = A + D > 0 and h'''(0) = 6 B + D != 0. Planar
objectives add a second axis built the same way. The term structure never
changes with the seed, so the symbolic work per job is the same from seed
to seed and only the numbers differ.
"""

from __future__ import annotations

import json
import os
import random


def _fmt(value: float) -> str:
    return repr(round(value, 4))


def _poly(terms) -> str:
    """Render (coefficient, body) pairs as a sum the grammar accepts.

    A negative coefficient is written as `- 0.23*x^3`; the grammar rejects
    `+ -0.23*x^3`."""
    out = ""
    for coef, body in terms:
        text = f"{_fmt(abs(coef))}*{body}"
        if not out:
            out = ("-" if coef < 0 else "") + text
        else:
            out += (" - " if coef < 0 else " + ") + text
    return out


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def objective_1d(rng: random.Random, cubic_sign: float | None = None) -> str:
    """A 1-D objective of the family; the cubic term's sign is drawn too
    unless `cubic_sign` fixes it."""
    return _poly([
        (-rng.uniform(0.8, 1.2), "cos(x)"),
        (_signed(rng, 0.08, 0.2) if cubic_sign is None
         else cubic_sign * rng.uniform(0.08, 0.2), "x^3"),
        (rng.uniform(0.02, 0.06), "x^4"),
        (rng.uniform(0.05, 0.15), "(exp(x) - 1 - x)"),
    ])


def objective_planar(rng: random.Random) -> str:
    return _poly([
        (-rng.uniform(0.8, 1.2), "cos(x1)"),
        (-rng.uniform(0.8, 1.2), "cos(x2)"),
        (_signed(rng, 0.08, 0.2), "x1^3"),
        (_signed(rng, 0.08, 0.2), "x2^3"),
        (rng.uniform(0.02, 0.06), "x1^4"),
        (rng.uniform(0.05, 0.15), "(exp(x2) - 1 - x2)"),
    ])


def _ledger() -> dict:
    return {"domain": [-1.0, 1.0], "x_star": 0.0}


def certify_jobs(rng: random.Random) -> list:
    """One objective taken from h to certified gains: every tuner, the
    averaged systems the tuners rest on, and the engine's self-check."""
    h = objective_1d(rng)
    hp = objective_planar(rng)
    tol = rng.uniform(0.009, 0.012)
    basic = {"kind": "basic1d", "h": h, "gains": {"a": 0.2, "eta": 0.01}}
    jobs = []
    for strategy, tuning in (
            (1, {"strategy": 1, "delta": 2.0 * tol}),
            (2, {"strategy": 2, "delta1": tol, "delta2": tol}),
            (4, {"strategy": 4, "delta": 0.5}),
            (3, {"strategy": 3, "delta1": tol, "delta2": tol})):
        jobs.append(("tune", f"tune_s{strategy}",
                     {"scheme": basic, "ledger": _ledger(), "tuning": tuning}))
    jobs.append(("tune", "tune_filtered",
                 {"scheme": basic, "ledger": _ledger(),
                  "tuning": {"target": "filtered", "delta1": tol, "delta2": tol}}))
    jobs.append(("tune", "tune_frequency",
                 {"scheme": basic, "ledger": _ledger(),
                  "tuning": {"target": "frequency", "a": 0.2, "eta": 0.01}}))
    jobs.append(("average", "average_basic1d",
                 {"scheme": dict(basic, avg_order=5)}))
    jobs.append(("average", "average_planar",
                 {"scheme": {"kind": "planar", "h": hp,
                             "gains": {"a": 0.2, "eta": 0.02}, "avg_order": 4}}))
    jobs.append(("verify", "verify_basic1d", {"scheme": basic}))
    return jobs


def simulate_jobs(rng: random.Random) -> list:
    """One trajectory of each scheme kind; basic1d also computes its
    averaged and ideal companions and the error metrics."""
    h = objective_1d(rng)
    hp = objective_planar(rng)
    periods = 50
    a = rng.uniform(0.2, 0.3)
    return [
        ("simulate", "simulate_basic1d",
         {"scheme": {"kind": "basic1d", "h": h,
                     "gains": {"a": a, "eta": rng.uniform(0.02, 0.04)}},
          "sim": {"horizon_periods": periods, "x0": 0.8, "metrics": True}}),
        ("simulate", "simulate_planar",
         {"scheme": {"kind": "planar", "h": hp,
                     "gains": {"a": a, "eta": rng.uniform(0.02, 0.04)}},
          "sim": {"horizon_periods": periods, "x0": [0.6, -0.5]}}),
        ("simulate", "simulate_filtered1d",
         {"scheme": {"kind": "filtered1d", "h": h,
                     "gains": {"a": 0.33, "eta": rng.uniform(0.006, 0.01),
                               "mu": 0.093, "gamma": 3.8}},
          "sim": {"horizon_periods": periods, "x0": 0.8}}),
        ("simulate", "simulate_plant1d",
         {"scheme": {"kind": "plant1d", "h": h,
                     "gains": {"a": a, "eta": rng.uniform(0.01, 0.02),
                               "omega": rng.uniform(0.4, 0.6)}},
          "sim": {"horizon_periods": periods, "x0": 0.8}}),
    ]


def gainmap_jobs(rng: random.Random) -> list:
    """Two gain-plane maps, wide enough in (a, p) that some cells escape:
    one objective with a rising cubic term and one with a falling one. The
    sign moves a map's cost by about 15 %, so every batch holds both."""
    sim = {"a_range": [0.02, 1.6], "p_range": [0.05, 60.0], "a_points": 30,
           "p_points": 30, "horizon_periods": 50, "x0": 1.0, "x_star": 0.0}
    return [("perfmap", f"perfmap_{name}",
             {"scheme": {"kind": "basic1d", "h": objective_1d(rng, sign)}, "sim": sim})
            for name, sign in (("rising", 1.0), ("falling", -1.0))]


_MAKERS = {"certify": certify_jobs, "simulate": simulate_jobs,
           "gainmap": gainmap_jobs}
WORKLOADS = tuple(_MAKERS)


def make_jobs(workload: str, seed: int) -> list:
    """Return [(command, name, config_dict)] for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng)


def write_jobs(workload: str, seed: int, directory: str) -> list:
    """Write each job's config to `directory`; return [(command, name, path)]."""
    os.makedirs(directory, exist_ok=True)
    out = []
    for command, name, config in make_jobs(workload, seed):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
            fh.write("\n")
        out.append((command, name, path))
    return out

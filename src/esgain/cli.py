"""Batch command-line front end: JSON config in, JSON/CSV artifacts out.

Subcommands: tune, simulate, perfmap, average, verify. Exit codes:
0 success, 2 config error, 3 infeasible tuning, 4 numeric overflow. Errors
are emitted as machine-readable JSON on standard error. All artifacts embed
a sha256 hash of the config file and the tool version, and floats are
printed with 17 significant digits so identical runs produce identical
bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .averaging import average, autonomy_residual
from .contraction import build_ledger
from .metaopt import (InfeasibleError, MetaOptProblem, consistency_report,
                      solve_numeric, solve_strategy3_closed_form,
                      tune_filtered, tune_frequency)
from .schemes import (SchemeInstance, _ideal_field, averaged_field, reference_averaged,
                      scheme_field, scheme_graded_field)
from .sim import SimulationOverflowError, compare, integrate, performance_map
from .symexpr import (Domain1D, EvalOverflowError, ParseError, compile_expr,
                      differentiate, parse_expr, to_string)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_OVERFLOW = 4

# RK4 steps in one simulate trajectory; integrate stores every state, so the
# cap bounds the memory a config can ask for
_MAX_STEPS = 10_000_000


class ConfigError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class RunConfig:
    scheme: dict
    ledger: dict
    tuning: dict
    sim: dict
    output: dict
    raw_text: str

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                text = fh.read()
            data = json.loads(text)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = cls(scheme=data.get("scheme", {}), ledger=data.get("ledger", {}),
                  tuning=data.get("tuning", {}), sim=data.get("sim", {}),
                  output=data.get("output", {}), raw_text=text)
        cfg._check_finite(data)
        return cfg

    @staticmethod
    def _check_finite(node) -> None:
        if isinstance(node, dict):
            for v in node.values():
                RunConfig._check_finite(v)
        elif isinstance(node, list):
            for v in node:
                RunConfig._check_finite(v)
        elif isinstance(node, float) and not math.isfinite(node):
            raise ConfigError("numeric config fields must be finite")

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()


def _require(block: dict, key, what: str):
    if key not in block:
        raise ConfigError(f"missing config field: {what}.{key}")
    return block[key]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(block: dict, key, default: float, what: str) -> float:
    v = block.get(key, default)
    if not _is_number(v):
        raise ConfigError(f"{what}.{key} must be a number")
    return float(v)


def _count(block: dict, key, default: int, what: str) -> int:
    v = block.get(key, default)
    if not (isinstance(v, int) and not isinstance(v, bool) and v >= 1):
        raise ConfigError(f"{what}.{key} must be an integer >= 1")
    return v


def _positive_range(block: dict, key, default: list, what: str) -> tuple:
    v = block.get(key, default)
    if not (isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))
            and 0 < v[0] < v[1]):
        raise ConfigError(f"{what}.{key} must be [lo, hi] with 0 < lo < hi")
    return float(v[0]), float(v[1])


def _scheme_from_config(cfg: RunConfig) -> SchemeInstance:
    blk = cfg.scheme
    if not blk:
        raise ConfigError("config needs a 'scheme' block")
    kind = _require(blk, "kind", "scheme")
    dim = 2 if kind == "planar" else 1
    try:
        h = parse_expr(_require(blk, "h", "scheme"), dim=dim)
    except ParseError as exc:
        raise ConfigError(f"scheme.h does not parse: {exc}") from exc
    gains = blk.get("gains", {})
    try:
        return SchemeInstance(
            kind=kind, h=h,
            a=float(_require(gains, "a", "scheme.gains")),
            eta=float(_require(gains, "eta", "scheme.gains")),
            m=int(blk.get("m", 1)), n=int(blk.get("n", 1)),
            mu=gains.get("mu"), gamma=gains.get("gamma"),
            omega=gains.get("omega"),
            taylor_order=int(blk.get("taylor_order", 6)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scheme block: {exc}") from exc


def _ledger_from_config(cfg: RunConfig):
    blk = cfg.ledger
    if not blk:
        raise ConfigError("config needs a 'ledger' block")
    dom = _require(blk, "domain", "ledger")
    if not (isinstance(dom, list) and len(dom) == 2):
        raise ConfigError("ledger.domain must be [lo, hi]")
    h_text = blk.get("h") or _require(cfg.scheme, "h", "scheme")
    try:
        h = parse_expr(h_text, dim=1)
    except ParseError as exc:
        raise ConfigError(f"ledger objective does not parse: {exc}") from exc
    return h, build_ledger(h, Domain1D(float(dom[0]), float(dom[1])),
                           x_star=blk.get("x_star"))


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _format_floats(node):
    """Recursively render floats as 17-significant-digit strings so output
    bytes are reproducible across platforms and json library versions."""
    if isinstance(node, dict):
        return {k: _format_floats(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_format_floats(v) for v in node]
    if isinstance(node, float):
        return "%.17g" % node
    return node


def _emit_json(payload: dict, cfg: RunConfig, out_path: str, verbose: bool) -> None:
    payload = dict(payload)
    payload["config_sha256"] = cfg.sha256
    payload["version"] = __version__
    rendered = json.loads(json.dumps(payload, default=_json_default))
    text = json.dumps(_format_floats(rendered), indent=2, sort_keys=True) + "\n"
    with open(out_path, "w") as fh:
        fh.write(text)
    if verbose:
        print(f"wrote {out_path}", file=sys.stderr)


def _error_json(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message, "exit_code": code}),
          file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# subcommands

def _cmd_tune(cfg: RunConfig, out_dir: str, verbose: bool) -> int:
    blk = cfg.tuning
    if not blk:
        raise ConfigError("config needs a 'tuning' block")
    h, ledger = _ledger_from_config(cfg)
    target = blk.get("target", "gains")
    if target == "frequency":
        sol = tune_frequency(ledger, float(_require(blk, "a", "tuning")),
                             float(_require(blk, "eta", "tuning")))
        payload = {"omega": sol.omega, "diagnostics": sol.diagnostics}
    elif target == "filtered":
        sol = tune_filtered(ledger, float(_require(blk, "delta1", "tuning")),
                            float(_require(blk, "delta2", "tuning")))
        payload = dataclasses.asdict(sol)
    else:
        strategy = int(_require(blk, "strategy", "tuning"))
        if strategy == 3 and blk.get("method", "closed-form") == "closed-form":
            sol = solve_strategy3_closed_form(
                ledger, float(_require(blk, "delta1", "tuning")),
                float(_require(blk, "delta2", "tuning")))
        else:
            prob = MetaOptProblem(
                ledger=ledger, strategy=strategy,
                delta=blk.get("delta"), delta1=blk.get("delta1"),
                delta2=blk.get("delta2"),
                m=int(blk.get("m", 1)), n=int(blk.get("n", 1)),
                grid_points=int(blk.get("grid_points", 200)))
            sol = solve_numeric(prob, h=h)
        payload = dataclasses.asdict(sol)
        if blk.get("consistency", True) and "p" in sol.gains:
            s = SchemeInstance("basic1d", h, a=sol.gains["a"], eta=sol.gains["eta"],
                               m=int(sol.provenance.get("m", 1)),
                               n=int(sol.provenance.get("n", 1)), taylor_order=6)
            res = average(scheme_graded_field(s, 4), 4, convention="w-zero-mean")
            payload["consistency"] = dataclasses.asdict(consistency_report(sol, res))
    _emit_json(payload, cfg, os.path.join(out_dir, "tune.json"), verbose)
    return EXIT_OK


def _cmd_simulate(cfg: RunConfig, out_dir: str, verbose: bool) -> int:
    s = _scheme_from_config(cfg)
    sim_blk = cfg.sim
    period = 2.0 * math.pi / (s.omega or 1.0) if s.kind == "plant1d" else 2.0 * math.pi
    dt = _number(sim_blk, "dt", period / 200.0, "sim")
    periods = _number(sim_blk, "horizon_periods", 300, "sim")
    if dt <= 0.0:
        raise ConfigError("sim.dt must be positive")
    if periods <= 0.0:
        raise ConfigError("sim.horizon_periods must be positive")
    horizon = periods * period
    if horizon < dt:
        raise ConfigError("sim.horizon_periods must cover at least one step of sim.dt")
    if round(horizon / dt) > _MAX_STEPS:
        raise ConfigError(f"sim.horizon_periods / sim.dt exceeds {_MAX_STEPS} steps")
    x0 = sim_blk.get("x0", [1.0] * s.dim)
    if _is_number(x0):
        x0 = [x0]
    # filtered1d and plant1d may give the slow state alone; the rest is derived
    fits = (1, s.dim) if s.kind in ("filtered1d", "plant1d") else (s.dim,)
    if not (isinstance(x0, list) and len(x0) in fits and all(map(_is_number, x0))):
        raise ConfigError(f"sim.x0 for {s.kind} must be a list of "
                          + " or ".join(map(str, fits)) + " numbers")
    x0 = [float(v) for v in x0]
    if s.kind == "filtered1d" and len(x0) == 1:
        hf = compile_expr(s.h)
        x0 = [x0[0], float(hf([np.asarray(x0[0])])), 0.0]
    if s.kind == "plant1d" and len(x0) == 1:
        x0 = [x0[0], x0[0]]
    traj = integrate(scheme_field(s), x0, horizon, dt,
                     metadata={"scheme": s.kind, "gains": s.gains})
    traj.write_csv(os.path.join(out_dir, "trajectory.csv"))
    payload: dict = {"final_state": list(traj.states[-1]),
                     "horizon": horizon, "dt": dt}
    if sim_blk.get("metrics", True) and s.kind == "basic1d":
        n_avg = int(sim_blk.get("avg_order", 2))
        res = average(scheme_graded_field(s, n_avg), n_avg, convention="w-zero-mean")
        y_traj = integrate(averaged_field(s, res.g_exprs(s.m + s.n)), [x0[0]], horizon, dt)
        z_traj = integrate(_ideal_field(s), [x0[0]], horizon, dt)
        metrics = compare(traj, y_traj, z_traj, res, s.eps)
        payload["metrics"] = dataclasses.asdict(metrics)
    _emit_json(payload, cfg, os.path.join(out_dir, "simulate.json"), verbose)
    return EXIT_OK


def _cmd_perfmap(cfg: RunConfig, out_dir: str, verbose: bool) -> int:
    blk = cfg.sim
    h_text = _require(cfg.scheme, "h", "scheme")
    try:
        h = parse_expr(h_text, dim=1)
    except ParseError as exc:
        raise ConfigError(f"scheme.h does not parse: {exc}") from exc
    a_rng = _positive_range(blk, "a_range", [0.02, 1.0], "sim")
    p_rng = _positive_range(blk, "p_range", [0.1, 10.0], "sim")
    na = _count(blk, "a_points", 20, "sim")
    npts = _count(blk, "p_points", 20, "sim")
    pm = performance_map(
        h, np.geomspace(a_rng[0], a_rng[1], na),
        np.geomspace(p_rng[0], p_rng[1], npts),
        horizon_periods=_count(blk, "horizon_periods", 300, "sim"),
        x0=_number(blk, "x0", 1.0, "sim"), x_star=_number(blk, "x_star", 0.0, "sim"))
    path = os.path.join(out_dir, "perfmap.csv")
    pm.write_csv(path)
    _emit_json({"cells": int(pm.feasible.size),
                "feasible_cells": int(pm.feasible.sum()),
                "csv": os.path.basename(path)},
               cfg, os.path.join(out_dir, "perfmap.json"), verbose)
    return EXIT_OK


def _cmd_average(cfg: RunConfig, out_dir: str, verbose: bool) -> int:
    s = _scheme_from_config(cfg)
    n_avg = int(cfg.scheme.get("avg_order", 2))
    convention = cfg.scheme.get("convention", "u-zero-mean")
    res = average(scheme_graded_field(s, n_avg), n_avg, convention=convention)
    per_degree = {}
    listing = []
    for i in range(1, n_avg + 1):
        comps = [to_string(e) for e in res.g_exprs(i)]
        per_degree[str(i)] = comps
        for c, text in enumerate(comps):
            listing.append(f"degree {i}, component {c}: {text}")
    _emit_json({"order": n_avg, "convention": convention,
                "averaged": per_degree, "p": s.p, "eps": s.eps},
               cfg, os.path.join(out_dir, "average.json"), verbose)
    with open(os.path.join(out_dir, "average.txt"), "w") as fh:
        fh.write("\n".join(listing) + "\n")
    return EXIT_OK


def _cmd_verify(cfg: RunConfig, out_dir: str, verbose: bool) -> int:
    s = _scheme_from_config(cfg)
    checks: dict[str, bool] = {}
    f = scheme_graded_field(s, 4 if s.kind != "filtered1d" else 2)
    n_avg = 4 if s.kind in ("basic1d", "plant1d") else 2
    res = average(f, min(n_avg, f.max_order), convention="w-zero-mean")
    ref = reference_averaged(s) if s.kind != "plant1d" else None
    rng_pts = np.linspace(-0.9, 0.9, 25)
    if ref is not None:
        ok = True
        for deg, exprs in ref.degree_fields.items():
            got = res.g_exprs(deg)
            for e_ref, e_got in zip(exprs, got):
                fr = compile_expr(e_ref)
                fg = compile_expr(e_got)
                args = [rng_pts] * s.dim
                if not np.allclose(np.broadcast_to(fr(args), rng_pts.shape),
                                   np.broadcast_to(fg(args), rng_pts.shape),
                                   rtol=0, atol=1e-9):
                    ok = False
        checks["averaged_matches_reference"] = ok
    checks["transform_zero_mean_or_convention"] = all(
        abs(term.time.c0) <= 1e-12 for term in res.w.terms)
    if s.kind == "basic1d":
        rep = autonomy_residual(f, res, [0.2, 0.1, 0.05], samples=40)
        checks["residual_order"] = bool(
            rep.exponent == math.inf
            or abs(rep.exponent - (res.order + 1)) <= 0.5)
    ok_all = all(checks.values())
    _emit_json({"checks": checks, "passed": ok_all},
               cfg, os.path.join(out_dir, "verify.json"), verbose)
    return EXIT_OK if ok_all else EXIT_CONFIG


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="esgain",
        description="Gain analysis and simulation for dither-based "
                    "extremum-seeking schemes.")
    ap.add_argument("command",
                    choices=["tune", "simulate", "perfmap", "average", "verify"])
    ap.add_argument("--config", required=True, help="JSON config file")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--verbose", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "tune":
            return _cmd_tune(cfg, args.out, args.verbose)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.out, args.verbose)
        if args.command == "perfmap":
            return _cmd_perfmap(cfg, args.out, args.verbose)
        if args.command == "average":
            return _cmd_average(cfg, args.out, args.verbose)
        return _cmd_verify(cfg, args.out, args.verbose)
    except ConfigError as exc:
        return _error_json(EXIT_CONFIG, "config", str(exc))
    except InfeasibleError as exc:
        return _error_json(EXIT_INFEASIBLE, "infeasible", str(exc))
    except (SimulationOverflowError, EvalOverflowError, OverflowError) as exc:
        return _error_json(EXIT_OVERFLOW, "overflow", str(exc))


if __name__ == "__main__":
    sys.exit(main())

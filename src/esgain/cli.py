"""Batch command-line front end: JSON config in, JSON/CSV artifacts out.

Subcommands: tune, simulate, perfmap, average, verify. Exit codes:
0 success, 2 config error, 3 infeasible tuning, 4 numeric overflow,
5 a `verify` invariant failed. Every nonzero exit writes one machine-readable
JSON line on standard error. All artifacts embed a sha256 hash of the
config file and the tool version, and floats are printed with 17
significant digits so identical runs produce identical bytes.
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
from .averaging import AveragingError, average, autonomy_residual
from .contraction import BoundsError, build_ledger
from .fourieralg import FieldError
from .metaopt import (InfeasibleError, MetaOptError, MetaOptProblem, consistency_report,
                      solve_numeric, solve_strategy3_closed_form,
                      tune_filtered, tune_frequency)
from .schemes import (SchemeError, SchemeInstance, _ideal_field, averaged_field,
                      reference_averaged, scheme_field, scheme_graded_field)
from .sim import SimError, SimulationOverflowError, compare, integrate, performance_map
from .symexpr import (Domain1D, EvalOverflowError, ExprError, compile_expr,
                      parse_expr, to_string)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_OVERFLOW = 4
EXIT_VERIFY = 5

# RK4 steps in one simulate trajectory; integrate stores every state, so the
# cap bounds the memory a config can ask for
_MAX_STEPS = 10_000_000

# the keys each config object accepts, the union over subcommands; "" is
# the root, whose keys are the blocks, and "scheme.gains" is nested
_KEYS = {
    "": ("scheme", "ledger", "tuning", "sim"),
    "scheme": ("kind", "h", "gains", "m", "n", "taylor_order", "avg_order", "convention"),
    "scheme.gains": ("a", "eta", "mu", "gamma", "omega"),
    "ledger": ("domain", "h", "x_star"),
    "tuning": ("target", "strategy", "method", "delta", "delta1", "delta2", "a", "eta",
               "m", "n", "grid_points", "consistency"),
    "sim": ("dt", "horizon_periods", "x0", "metrics", "avg_order",
            "a_range", "p_range", "a_points", "p_points", "x_star"),
}


class ConfigError(Exception):
    pass


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# field kinds a Block reads: (accepts, converts, description)
NUMBER = (_finite, float, "a finite number")
COUNT = (lambda v: type(v) is int and v >= 1, int, "an integer >= 1")
TEXT = (lambda v: isinstance(v, str), str, "a string")
FLAG = (lambda v: isinstance(v, bool), bool, "true or false")
NUMBERS = (lambda v: _finite(v) or isinstance(v, list) and all(map(_finite, v)),
           lambda v: [float(x) for x in (v if isinstance(v, list) else [v])],
           "a finite number or a list of them")
PAIR = (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_finite, v)),
        lambda v: (float(v[0]), float(v[1])), "[lo, hi] of two finite numbers")


def _one_of(*choices):
    return (lambda v: v in choices, str, "one of " + ", ".join(choices))


_REQUIRED = object()


class Block(dict):
    """One config object, its keys checked against `_KEYS` and its nested
    objects made Blocks too. Calling it reads one field of a given kind."""

    def __init__(self, path: str, data):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config root'} must be a JSON object")
        unknown = sorted(set(data) - set(_KEYS[path]))
        if unknown:
            raise ConfigError(f"unknown key(s) in {path or 'config root'}: "
                              + ", ".join(unknown))
        sub = lambda k: f"{path}.{k}" if path else k
        super().__init__({k: Block(sub(k), v) if sub(k) in _KEYS else v
                          for k, v in data.items()})
        self.path = path

    def __call__(self, key: str, kind, default=_REQUIRED):
        if key not in self:
            if default is _REQUIRED:
                raise ConfigError(f"missing config field: {self.path}.{key}")
            return default
        accepts, convert, what = kind
        if not accepts(self[key]):
            raise ConfigError(f"{self.path}.{key} must be {what}")
        return convert(self[key])

    def block(self, key: str) -> "Block":
        return self.get(key) or Block(f"{self.path}.{key}" if self.path else key, {})


@dataclasses.dataclass(frozen=True)
class RunConfig:
    scheme: Block
    ledger: Block
    tuning: Block
    sim: Block
    raw_text: str

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                text = fh.read()
            data = json.loads(text)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config as JSON: {exc}") from exc
        root = Block("", data)
        return cls(**{name: root.block(name) for name in _KEYS[""]}, raw_text=text)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()


def _scheme_from_config(cfg: RunConfig) -> SchemeInstance:
    blk, gains = cfg.scheme, cfg.scheme.block("gains")
    kind = blk("kind", TEXT)
    return SchemeInstance(
        kind=kind, h=parse_expr(blk("h", TEXT), dim=2 if kind == "planar" else 1),
        a=gains("a", NUMBER), eta=gains("eta", NUMBER),
        m=blk("m", COUNT, 1), n=blk("n", COUNT, 1),
        mu=gains("mu", NUMBER, None), gamma=gains("gamma", NUMBER, None),
        omega=gains("omega", NUMBER, None), taylor_order=blk("taylor_order", COUNT, 6))


def _ledger_from_config(cfg: RunConfig):
    blk = cfg.ledger
    lo, hi = blk("domain", PAIR)
    h = parse_expr(blk("h", TEXT, "") or cfg.scheme("h", TEXT), dim=1)
    return h, build_ledger(h, Domain1D(lo, hi), x_star=blk("x_star", NUMBER, None))


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
    target = blk("target", _one_of("gains", "frequency", "filtered"), "gains")
    method = blk("method", _one_of("closed-form", "numeric"), "closed-form")
    h, ledger = _ledger_from_config(cfg)
    if target == "frequency":
        sol = tune_frequency(ledger, blk("a", NUMBER), blk("eta", NUMBER))
        payload = {"omega": sol.omega, "diagnostics": sol.diagnostics}
    elif target == "filtered":
        sol = tune_filtered(ledger, blk("delta1", NUMBER), blk("delta2", NUMBER))
        payload = dataclasses.asdict(sol)
    else:
        strategy = blk("strategy", COUNT)
        if strategy == 3 and method == "closed-form":
            sol = solve_strategy3_closed_form(ledger, blk("delta1", NUMBER),
                                              blk("delta2", NUMBER))
        else:
            prob = MetaOptProblem(
                ledger=ledger, strategy=strategy, delta=blk("delta", NUMBER, None),
                delta1=blk("delta1", NUMBER, None), delta2=blk("delta2", NUMBER, None),
                m=blk("m", COUNT, 1), n=blk("n", COUNT, 1),
                grid_points=blk("grid_points", COUNT, 200))
            sol = solve_numeric(prob, h=h)
        payload = dataclasses.asdict(sol)
        if blk("consistency", FLAG, True) and "p" in sol.gains:
            s = SchemeInstance("basic1d", h, a=sol.gains["a"], eta=sol.gains["eta"],
                               m=sol.provenance["m"], n=sol.provenance["n"], taylor_order=6)
            res = average(scheme_graded_field(s, 4), 4, convention="w-zero-mean")
            payload["consistency"] = dataclasses.asdict(consistency_report(sol, res))
    _emit_json(payload, cfg, os.path.join(out_dir, "tune.json"), verbose)
    return EXIT_OK


def _cmd_simulate(cfg: RunConfig, out_dir: str, verbose: bool) -> int:
    s = _scheme_from_config(cfg)
    blk = cfg.sim
    period = 2.0 * math.pi / (s.omega or 1.0) if s.kind == "plant1d" else 2.0 * math.pi
    dt = blk("dt", NUMBER, period / 200.0)
    horizon = blk("horizon_periods", NUMBER, 300.0) * period
    if dt > 0.0 and round(horizon / dt) > _MAX_STEPS:
        raise ConfigError(f"sim.horizon_periods / sim.dt exceeds {_MAX_STEPS} steps")
    x0 = blk("x0", NUMBERS, [1.0] * s.dim)
    # filtered1d and plant1d may give the slow state alone; the rest is derived
    fits = (1, s.dim) if s.kind in ("filtered1d", "plant1d") else (s.dim,)
    if len(x0) not in fits:
        raise ConfigError(f"sim.x0 for {s.kind} must hold "
                          + " or ".join(map(str, fits)) + " numbers")
    if s.kind == "filtered1d" and len(x0) == 1:
        hf = compile_expr(s.h)
        x0 = [x0[0], float(hf([np.asarray(x0[0])])), 0.0]
    if s.kind == "plant1d" and len(x0) == 1:
        x0 = [x0[0], x0[0]]
    traj = integrate(scheme_field(s), x0, horizon, dt)
    traj.write_csv(os.path.join(out_dir, "trajectory.csv"))
    payload: dict = {"final_state": list(traj.states[-1]),
                     "horizon": horizon, "dt": dt}
    if blk("metrics", FLAG, True) and s.kind == "basic1d":
        n_avg = blk("avg_order", COUNT, 2)
        res = average(scheme_graded_field(s, n_avg), n_avg, convention="w-zero-mean")
        y_traj = integrate(averaged_field(s, res.g_exprs(s.m + s.n)), [x0[0]], horizon, dt)
        z_traj = integrate(_ideal_field(s), [x0[0]], horizon, dt)
        metrics = compare(traj, y_traj, z_traj, res, s.eps)
        payload["metrics"] = dataclasses.asdict(metrics)
    _emit_json(payload, cfg, os.path.join(out_dir, "simulate.json"), verbose)
    return EXIT_OK


def _cmd_perfmap(cfg: RunConfig, out_dir: str, verbose: bool) -> int:
    blk = cfg.sim
    h = parse_expr(cfg.scheme("h", TEXT), dim=1)
    grids = []
    for axis, default in (("a", [0.02, 1.0]), ("p", [0.1, 10.0])):
        lo, hi = blk(f"{axis}_range", PAIR, default)
        # geomspace needs positive ends, and the map an increasing grid
        if not 0.0 < lo < hi:
            raise ConfigError(f"sim.{axis}_range must be [lo, hi] with 0 < lo < hi")
        grids.append(np.geomspace(lo, hi, blk(f"{axis}_points", COUNT, 20)))
    pm = performance_map(h, *grids, horizon_periods=blk("horizon_periods", COUNT, 300),
                         x0=blk("x0", NUMBER, 1.0), x_star=blk("x_star", NUMBER, 0.0))
    path = os.path.join(out_dir, "perfmap.csv")
    pm.write_csv(path)
    _emit_json({"cells": int(pm.feasible.size),
                "feasible_cells": int(pm.feasible.sum()),
                "csv": os.path.basename(path)},
               cfg, os.path.join(out_dir, "perfmap.json"), verbose)
    return EXIT_OK


def _cmd_average(cfg: RunConfig, out_dir: str, verbose: bool) -> int:
    s = _scheme_from_config(cfg)
    n_avg = cfg.scheme("avg_order", COUNT, 2)
    convention = cfg.scheme("convention", TEXT, "u-zero-mean")
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
    failed = [name for name, ok in checks.items() if not ok]
    _emit_json({"checks": checks, "passed": not failed},
               cfg, os.path.join(out_dir, "verify.json"), verbose)
    if failed:
        return _error_json(EXIT_VERIFY, "verify", "invariant checks failed: "
                           + ", ".join(failed))
    return EXIT_OK


# ---------------------------------------------------------------------------

_COMMANDS = {"tune": _cmd_tune, "simulate": _cmd_simulate, "perfmap": _cmd_perfmap,
             "average": _cmd_average, "verify": _cmd_verify}

# library error -> exit code and JSON error kind. The first match wins, so
# InfeasibleError (a MetaOptError) and the overflow errors (an ExprError and
# a SimError) come before their bases; any other exception is a bug and
# propagates.
_EXITS = (
    (InfeasibleError, EXIT_INFEASIBLE, "infeasible"),
    ((SimulationOverflowError, EvalOverflowError, OverflowError), EXIT_OVERFLOW, "overflow"),
    ((ConfigError, ExprError, SchemeError, MetaOptError, AveragingError, BoundsError,
      FieldError, SimError), EXIT_CONFIG, "config"),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="esgain",
        description="Gain analysis and simulation for dither-based "
                    "extremum-seeking schemes.")
    ap.add_argument("command", choices=list(_COMMANDS))
    ap.add_argument("--config", required=True, help="JSON config file")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--verbose", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out, args.verbose)
    except Exception as exc:
        for types, code, kind in _EXITS:
            if isinstance(exc, types):
                return _error_json(code, kind, str(exc))
        raise


if __name__ == "__main__":
    sys.exit(main())

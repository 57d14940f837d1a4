"""Trajectory generation and empirical validation: fixed-step Runge-Kutta
integration, error metrics between full/averaged/ideal systems, convergence
timing, and the gain-plane performance map.

Everything here is deterministic: fixed steps, no adaptivity, no sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import AveragingResult, transform_points
from .schemes import dithered_field
from .symexpr import Field


_BLOCK = 1024     # RK4 steps between finiteness checks
_CSV_ROWS = 1024  # CSV rows formatted per write
_CELL_STEPS = 2 ** 15   # cell-steps a gain map holds between its checks


class SimError(Exception):
    pass


class SimulationOverflowError(SimError):
    def __init__(self, abort_time: float):
        super().__init__(f"state became non-finite at t = {abort_time:.6g}")
        self.abort_time = abort_time


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray           # uniform grid, shape (nt,)
    states: np.ndarray      # shape (nt, dim), or (nt,) for one state

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if t.ndim != 1 or s.ndim != 2 or s.shape[0] != t.size:
            raise SimError(f"states of shape {np.shape(self.states)} do not fit "
                           f"times of shape {t.shape}: need (nt, dim) or (nt,)")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "states", s)
        if t.size >= 3:
            dts = np.diff(t)
            if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
                raise SimError("time grid must be uniform")
        if not np.all(np.isfinite(s)):
            raise SimError("trajectory contains non-finite states")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def write_csv(self, path) -> None:
        _write_rows(path, "t," + ",".join(f"state{i}" for i in range(self.dim)),
                    ",".join(["%.17g"] * (self.dim + 1)), [self.t, *self.states.T])


@dataclass(frozen=True)
class ErrorMetrics:
    sup_full_vs_averaged: float
    sup_averaged_vs_ideal: float
    asymptotic_error: float
    mean_descent_rate: float

    def __post_init__(self):
        for name in ("sup_full_vs_averaged", "sup_averaged_vs_ideal",
                     "asymptotic_error", "mean_descent_rate"):
            if getattr(self, name) < 0.0:
                raise SimError(f"{name} must be nonnegative")


def integrate(rhs, x0, T: float, dt: float) -> Trajectory:
    """Classical fixed-step 4th-order Runge-Kutta from t = 0 to t = T, on
    Python floats through the field's generated march. A plain callable is
    wrapped by `Field.of_callable` and may see a blow-up's non-finite states."""
    if dt <= 0.0:
        raise SimError("dt must be positive")
    if T < dt:
        raise SimError("horizon must cover at least one step")
    n_steps = int(round(T / dt))
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    march = (rhs if isinstance(rhs, Field) else Field.of_callable(rhs, x.size)).rk4(dt)
    state, t = tuple(x.tolist()), 0.0
    out = np.empty((n_steps + 1, x.size))
    out[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, n_steps + 1, _BLOCK):
            states, t_next = march(t, state, min(_BLOCK, n_steps + 1 - start))
            block = out[start:start + len(states)]
            block[:] = states
            bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
            if bad.size:   # report the first non-finite step at its time
                for _ in range(bad[0] + 1):
                    t += dt
                raise SimulationOverflowError(t)
            state, t = states[-1], t_next
    return Trajectory(t=np.arange(n_steps + 1) * dt, states=out)


def compare(full: Trajectory, averaged: Trajectory, ideal: Trajectory,
            transform: AveragingResult, eps: float) -> ErrorMetrics:
    """Empirical error split: how far the full trajectory sits from the
    transformed averaged one, and how far the averaged one sits from the
    ideal flow. The ideal trajectory's final state stands in for the
    sought optimum in the asymptotic-error readout."""
    if full.t.shape != averaged.t.shape or full.t.shape != ideal.t.shape \
            or not np.allclose(full.t, averaged.t) or not np.allclose(full.t, ideal.t):
        raise SimError("trajectories must share one time grid")
    dim = averaged.states.shape[1]
    if full.dim < dim or ideal.dim != dim:
        raise SimError("averaged and ideal dimensions must match and fit the full state")
    mapped = transform_points(transform, averaged.states, averaged.t, eps)
    sup_fa = float(np.max(np.abs(full.states[:, :dim] - mapped)))
    sup_ai = float(np.max(np.abs(averaged.states - ideal.states)))
    x_star = ideal.states[-1]
    tail = slice(int(0.8 * full.t.size), None)
    asym = float(np.max(np.abs(full.states[tail, :dim] - x_star)))
    horizon = float(full.t[-1] - full.t[0]) or 1.0
    d0 = float(np.max(np.abs(averaged.states[0] - x_star)))
    d1 = float(np.max(np.abs(averaged.states[-1] - x_star)))
    return ErrorMetrics(
        sup_full_vs_averaged=sup_fa,
        sup_averaged_vs_ideal=sup_ai,
        asymptotic_error=asym,
        mean_descent_rate=max(0.0, (d0 - d1) / horizon))


def convergence_time(traj: Trajectory, target: float, band: float,
                     component: int = 0) -> float:
    """First time after which |x - target| stays within the band for the
    rest of the horizon; 0 if always inside, +inf if it never settles."""
    if band <= 0.0:
        raise SimError("band must be positive")
    dev = np.abs(traj.states[:, component] - target)
    outside = dev > band
    if not outside.any():
        return 0.0
    last_out = int(np.flatnonzero(outside)[-1])
    if last_out == traj.t.size - 1:
        return math.inf
    return float(traj.t[last_out + 1])


# ---------------------------------------------------------------------------
# gain-plane performance map

@dataclass(frozen=True)
class PerfMap:
    a_grid: np.ndarray
    p_grid: np.ndarray
    speed: np.ndarray      # (na, np)
    error: np.ndarray      # (na, np); inf where infeasible
    feasible: np.ndarray   # bool (na, np)

    def __post_init__(self):
        for g in (self.a_grid, self.p_grid):
            if not np.all(np.diff(g) > 0):
                raise SimError("grids must be strictly increasing")
        shape = (self.a_grid.size, self.p_grid.size)
        for arr in (self.speed, self.error, self.feasible):
            if arr.shape != shape:
                raise SimError("cell arrays must match the grid shape")

    def write_csv(self, path) -> None:
        cells = (*np.meshgrid(self.a_grid, self.p_grid, indexing="ij"),
                 self.speed, self.error, self.feasible)
        _write_rows(path, "a,p,speed,error,feasible", "%.17g,%.17g,%.17g,%.17g,%d",
                    [c.ravel() for c in cells])


def performance_map(h, a_grid, p_grid, horizon_periods: int = 1000,
                    x0: float = 1.0, x_star: float = 0.0,
                    steps_per_period: int = 200) -> PerfMap:
    """Sweep the (a, p) gain plane for the single-gain scheme
    xdot = -eta h(x + a sin t) sin t with eta = p * a^3 (p is the
    fine-tuning factor when the loop gain sits one grading order above the
    amplitude, the regime where the accuracy/speed trade-off is sharp).

    Per cell: integrate for the requested number of dither periods from x0,
    record speed = 1 / (time for the period-averaged deviation |x_av - x*|
    to halve), error = sup |x - x*| over the final 20% of the horizon, and
    feasibility = the state stayed finite and bounded. All cells advance in
    lockstep through the march `integrate` runs; a lone cell runs on floats.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    A = np.repeat(a_grid, p_grid.size)          # row-major over (a, p)
    ETA = A ** 3 * np.tile(p_grid, a_grid.size)
    n, dt = steps_per_period, 2.0 * math.pi / steps_per_period
    escape = 1e6 * max(1.0, abs(x0 - x_star))
    d0 = abs(float(x0) - x_star)
    tail_start = int(0.8 * horizon_periods * n)
    tail_max = np.full(A.size, d0 if tail_start == 0 else 0.0)
    first = np.full(A.size, -1)     # first period whose mean deviation is <= d0 / 2
    live = np.arange(A.size)        # cells that have not escaped
    lone = A.size == 1              # a lone cell steps on Python floats
    march = dithered_field(h, *((float(A[0]), float(ETA[0])) if lone else (A, ETA))).rk4(dt)
    x, t = float(x0) if lone else np.full(A.size, float(x0)), 0.0
    # escaping cells overflow by design; a block's end drops them as infeasible
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon_periods):
            acc, done = 0.0 if lone else np.zeros(live.size), 0
            while done < n and live.size:
                m = min(n - done, max(1, _CELL_STEPS // live.size))
                states, t = march(t, (x,), m)
                for (x,) in states:     # the period's sum in step order, in place on cells;
                    acc += x            # x ends as the last state
                block = np.reshape(states, (m, live.size))
                tail = _max_deviation(block[max(0, tail_start - k * n - done):], x_star)
                tail_max[live] = np.maximum(tail_max[live], tail)
                done += m
                kept = _max_deviation(block, x_star) <= escape
                if not kept.all():
                    live = live[kept]
                    if live.size:
                        x, acc = x[kept], acc[kept]
                        march = dithered_field(h, A[live], ETA[live]).rk4(dt)
            if not live.size:
                break
            halved = np.abs(acc / n - x_star) <= 0.5 * d0
            first[live[halved & (first[live] < 0)]] = k
    shape = (a_grid.size, p_grid.size)
    alive = np.isin(np.arange(A.size), live)
    settled = alive & (first >= 0)
    speed = np.where(settled, 1.0 / ((np.maximum(first, 0) + 1.0) * (2.0 * math.pi)), 0.0)
    return PerfMap(a_grid, p_grid, speed.reshape(shape),
                   np.where(alive, tail_max, math.inf).reshape(shape), alive.reshape(shape))


def _max_deviation(block: np.ndarray, x_star: float) -> np.ndarray:
    """max |x - x_star| down each column, 0.0 on no rows, with no temporary
    of the block's size: monotone rounding and NaN keep abs's bits."""
    return np.maximum(block.max(axis=0, initial=x_star) - x_star,
                      x_star - block.min(axis=0, initial=x_star))


def _write_rows(path, header: str, fmt: str, columns) -> None:
    """Write a CSV: the header, then `fmt` per row of the columns, a block
    of rows formatted by one `%` per write."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), _CSV_ROWS):
            block = np.column_stack([c[i:i + _CSV_ROWS] for c in columns])
            fh.write((fmt + "\n") * len(block) % tuple(block.ravel().tolist()))

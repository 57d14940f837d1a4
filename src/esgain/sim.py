"""Trajectory generation and empirical validation: fixed-step Runge-Kutta
integration, error metrics between full/averaged/ideal systems, convergence
timing, and the gain-plane performance map.

Everything here is deterministic: fixed steps, no adaptivity, no sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .averaging import AveragingResult, transform_points
from .symexpr import compile_expr


class SimError(Exception):
    pass


class SimulationOverflowError(SimError):
    def __init__(self, abort_time: float):
        super().__init__(f"state became non-finite at t = {abort_time:.6g}")
        self.abort_time = abort_time


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray           # uniform grid, shape (nt,)
    states: np.ndarray      # shape (nt, dim)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        s = np.atleast_2d(np.asarray(self.states, dtype=float))
        if s.shape[0] != t.size:
            s = s.T
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "states", s)
        if t.size >= 3:
            dts = np.diff(t)
            if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
                raise SimError("time grid must be uniform")
        if not np.all(np.isfinite(s)):
            raise SimError("trajectory contains non-finite states")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0]) if self.t.size > 1 else 0.0

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t," + ",".join(f"state{i}" for i in range(self.dim)) + "\n")
            for ti, row in zip(self.t, self.states):
                fh.write(("%.17g" % ti) + ","
                         + ",".join("%.17g" % v for v in row) + "\n")


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


def integrate(rhs, x0, T: float, dt: float, metadata: dict | None = None) -> Trajectory:
    """Classical fixed-step 4th-order Runge-Kutta from t = 0 to t = T."""
    if dt <= 0.0:
        raise SimError("dt must be positive")
    if T < dt:
        raise SimError("horizon must cover at least one step")
    n_steps = int(round(T / dt))
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    out = np.empty((n_steps + 1, x.size))
    out[0] = x
    t = 0.0
    for i in range(n_steps):
        k1 = np.asarray(rhs(t, x), dtype=float)
        k2 = np.asarray(rhs(t + 0.5 * dt, x + 0.5 * dt * k1), dtype=float)
        k3 = np.asarray(rhs(t + 0.5 * dt, x + 0.5 * dt * k2), dtype=float)
        k4 = np.asarray(rhs(t + dt, x + dt * k3), dtype=float)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        if not np.all(np.isfinite(x)):
            raise SimulationOverflowError(t)
        out[i + 1] = x
    return Trajectory(t=np.arange(n_steps + 1) * dt, states=out,
                      metadata=dict(metadata or {}, dt=dt))


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
        with open(path, "w") as fh:
            fh.write("a,p,speed,error,feasible\n")
            for i, a in enumerate(self.a_grid):
                for j, p in enumerate(self.p_grid):
                    fh.write("%.17g,%.17g,%.17g,%.17g,%d\n" % (
                        a, p, self.speed[i, j], self.error[i, j],
                        1 if self.feasible[i, j] else 0))


def performance_map(h, a_grid, p_grid, horizon_periods: int = 1000,
                    x0: float = 1.0, x_star: float = 0.0,
                    steps_per_period: int = 200,
                    kind: str = "basic1d") -> PerfMap:
    """Sweep the (a, p) gain plane for the single-gain scheme
    xdot = -eta h(x + a sin t) sin t with eta = p * a^3 (p is the
    fine-tuning factor when the loop gain sits one grading order above the
    amplitude, the regime where the accuracy/speed trade-off is sharp).

    Per cell: integrate for the requested number of dither periods from x0,
    record speed = 1 / (time for the period-averaged deviation |x_av - x*|
    to halve), error = sup |x - x*| over the final 20% of the horizon, and
    feasibility = the state stayed finite and bounded. All cells advance in
    lockstep through one vectorized integrator.
    """
    if kind != "basic1d":
        raise SimError("performance map is defined for the single-gain scheme")
    a_grid = np.asarray(a_grid, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    hf = compile_expr(h)
    A = np.repeat(a_grid, p_grid.size)          # row-major over (a, p)
    ETA = A ** 3 * np.tile(p_grid, a_grid.size)
    n_cells = A.size
    dt = 2.0 * math.pi / steps_per_period
    n_steps = horizon_periods * steps_per_period
    x = np.full(n_cells, float(x0))
    alive = np.ones(n_cells, dtype=bool)
    escape = 1e6 * max(1.0, abs(x0 - x_star))

    period_means = np.zeros((horizon_periods, n_cells))
    acc = np.zeros(n_cells)
    tail_start = int(0.8 * n_steps)
    tail_max = np.abs(x - x_star) * (tail_start == 0)

    def f(t, y):
        return -ETA * hf([y + A * math.sin(t)]) * math.sin(t)

    t = 0.0
    # escaping cells overflow by design; they are parked and flagged infeasible
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            k1 = f(t, x)
            k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
            k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
            k4 = f(t + dt, x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += dt
            bad = ~np.isfinite(x) | (np.abs(x - x_star) > escape)
            if bad.any():
                alive &= ~bad
                x = np.where(alive, x, x_star)
            acc += x
            if step >= tail_start:
                tail_max = np.maximum(tail_max, np.abs(x - x_star))
            if (step + 1) % steps_per_period == 0:
                period_means[(step + 1) // steps_per_period - 1] = acc / steps_per_period
                acc[:] = 0.0

    d0 = abs(float(x0) - x_star)
    dev = np.abs(period_means - x_star)          # (periods, cells)
    halved = dev <= 0.5 * d0
    t_half = np.full(n_cells, math.inf)
    any_halved = halved.any(axis=0)
    first = np.argmax(halved, axis=0)
    period = 2.0 * math.pi
    t_half[any_halved] = (first[any_halved] + 1.0) * period
    speed = np.where(alive & any_halved, 1.0 / t_half, 0.0)
    error = np.where(alive, tail_max, math.inf)
    return PerfMap(a_grid=a_grid, p_grid=p_grid,
                   speed=speed.reshape(a_grid.size, p_grid.size),
                   error=error.reshape(a_grid.size, p_grid.size),
                   feasible=alive.reshape(a_grid.size, p_grid.size))

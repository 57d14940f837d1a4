"""Tests for trajectory integration, error metrics, and the gain-plane map."""
import ast
import math

import numpy as np
import pytest

from esgain.averaging import average, transform_points
from esgain.contraction import plant_coupling_bound
from esgain.schemes import SchemeInstance, ideal_flow, plant_slow_rhs, scheme_rhs, \
    scheme_graded_field
from esgain.sim import (PerfMap, SimError, SimulationOverflowError, Trajectory,
                        compare, convergence_time, integrate, performance_map)
from esgain import symexpr
from esgain.symexpr import ExprError, Field, compile_expr, differentiate, parse_expr


QUAD_H = parse_expr("0.5*x^2")


class TestTrajectory:
    def test_uniform_grid_required(self):
        with pytest.raises(SimError):
            Trajectory(np.array([0.0, 0.1, 0.3]), np.zeros((3, 1)))

    def test_states_must_fit_the_time_grid(self):
        t = np.array([0.0, 0.1, 0.2])
        for states in (np.zeros((4, 1)), np.zeros((1, 3)), np.zeros((2, 3)),
                       np.zeros(4), np.zeros((3, 1, 1))):
            with pytest.raises(SimError, match="do not fit"):
                Trajectory(t, states)
        one = Trajectory(t, np.array([1.0, 2.0, 3.0]))  # 1-D: one state per time
        assert one.states.shape == (3, 1) and one.dim == 1

    def test_non_finite_states_rejected(self):
        s = np.zeros((3, 1))
        s[2, 0] = np.nan
        with pytest.raises(SimError):
            Trajectory(np.array([0.0, 0.1, 0.2]), s)

    def test_csv_bytes_match_per_value_formatting(self, tmp_path):
        # the writer formats whole rows; the bytes are those of "%.17g"
        # applied value by value, as the trajectory CSV was always written
        rng = np.random.default_rng(3)
        t = np.arange(40) * 0.1
        s = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
        s[5] = [0.0, -0.0, 1e-320]
        path = tmp_path / "traj.csv"
        Trajectory(t, s).write_csv(path)
        want = "t,state0,state1,state2\n" + "".join(
            ("%.17g" % ti) + "," + ",".join("%.17g" % v for v in row) + "\n"
            for ti, row in zip(t, s))
        assert path.read_text() == want

    def test_csv_round_trip(self, tmp_path):
        t = np.linspace(0.0, 1.0, 5)
        s = np.column_stack([np.sin(t), np.cos(t)])
        traj = Trajectory(t, s)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], t)
        assert np.array_equal(data[:, 1:], s)
        header = path.read_text().splitlines()[0]
        assert header == "t,state0,state1"


class TestIntegrate:
    def test_zero_field_is_constant(self):
        traj = integrate(lambda t, x: np.zeros_like(x), np.array([1.0]),
                         T=2.0, dt=0.1)
        assert np.all(traj.states == 1.0)

    def test_exponential_decay_value(self):
        traj = integrate(lambda t, x: -x, np.array([1.0]), T=1.0, dt=1e-3)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_fourth_order_convergence(self):
        def err(dt):
            traj = integrate(lambda t, x: -x, np.array([1.0]), T=1.0, dt=dt)
            return abs(traj.states[-1, 0] - math.exp(-1.0))
        ratio = err(0.02) / err(0.01)
        assert ratio == pytest.approx(16.0, rel=0.2)

    def test_overflow_reports_abort_time(self):
        # x' = x^2 from x0 = 1 blows up at t = 1
        with pytest.raises(SimulationOverflowError) as exc, \
                np.errstate(over="ignore", invalid="ignore"):
            integrate(lambda t, x: x * x, np.array([1.0]), T=2.0, dt=1e-3)
        assert 0.5 < exc.value.abort_time <= 2.0

    def test_abort_time_is_the_first_non_finite_step(self):
        # x' = -eta h(x + a sin t) sin t with h = -x^4 blows up after more
        # than one 1024-step block of finiteness checks; the reported time is
        # the one that t += dt reached at the first non-finite state, here
        # found by a hand-written RK4 in plain numpy
        s = SchemeInstance("basic1d", parse_expr("-x^4"), a=0.5, eta=1.0)

        def f(t, x):
            u = np.sin(t)
            w = x[0] + 0.5 * u
            return np.array([-1.0 * -((w * w) * (w * w)) * u])
        dt, x, t = 1e-3, np.array([0.45]), 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            while np.all(np.isfinite(x)):
                k1 = f(t, x)
                k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
                k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
                k4 = f(t + dt, x + dt * k3)
                x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t += dt
        assert t > 1024 * dt
        for rhs in (scheme_rhs(s), lambda t, x: scheme_rhs(s)(t, x)):
            with pytest.raises(SimulationOverflowError) as exc, \
                    np.errstate(over="ignore", invalid="ignore"):
                integrate(rhs, [0.45], T=30.0, dt=dt)
            assert exc.value.abort_time == t

    @pytest.mark.parametrize("text", ["cos(x) - 0.5*x^4", "sin(x) - 0.5*x^4"])
    def test_overflow_through_sin_and_cos(self, text):
        # the state reaches inf inside an RK4 step, so the next stage takes
        # cos or sin of inf: the float march must give nan there, as the
        # cells march does, and abort at the first non-finite row of the
        # same field marched as the first of two cells
        h = parse_expr(text)
        dt, n = 2.0 * math.pi / 200, 400
        lone = scheme_rhs(SchemeInstance("basic1d", h, a=0.5, eta=2.0))
        pair = Field(lone.comps, lone.body, lone.dither,
                     **{k: np.array([v, 0.5 * v]) for k, v in lone.params.items()})
        with np.errstate(over="ignore", invalid="ignore"):
            rows, _ = pair.rk4(dt)(0.0, (np.array([3.0, 0.1]),), n)
        bad = np.flatnonzero(~np.isfinite(rows[:, 0, 0]))
        assert bad.size and np.isfinite(rows[:bad[0] + 1, 0, 1]).all()
        t = 0.0
        for _ in range(bad[0] + 1):
            t += dt
        with pytest.raises(SimulationOverflowError) as exc, \
                np.errstate(over="ignore", invalid="ignore"):
            integrate(lone, [3.0], T=n * dt, dt=dt)
        assert exc.value.abort_time == t

    def test_invalid_steps_rejected(self):
        with pytest.raises(SimError):
            integrate(lambda t, x: -x, np.array([1.0]), T=1.0, dt=0.0)
        with pytest.raises(SimError):
            integrate(lambda t, x: -x, np.array([1.0]), T=0.0, dt=0.1)


class TestCompare:
    def _setup(self, worked_h, a=0.2, eta=0.01, order=2):
        s = SchemeInstance("basic1d", worked_h, a=a, eta=eta)
        res = average(scheme_graded_field(s, order), order,
                      convention="w-zero-mean")
        return s, res

    def test_exactly_transformed_full_gives_zero(self, worked_h):
        s, res = self._setup(worked_h)
        t = np.linspace(0.0, 10.0, 101)
        y = 0.5 * np.exp(-0.1 * t)[:, None]
        mapped = transform_points(res, y, t, s.eps)
        full = Trajectory(t, mapped)
        averaged = Trajectory(t, y)
        ideal = Trajectory(t, y)
        m = compare(full, averaged, ideal, res, s.eps)
        assert m.sup_full_vs_averaged == 0.0
        assert m.sup_averaged_vs_ideal == 0.0

    def test_grid_mismatch_rejected(self, worked_h):
        s, res = self._setup(worked_h)
        t1 = np.linspace(0.0, 1.0, 11)
        t2 = np.linspace(0.0, 2.0, 11)
        a = Trajectory(t1, np.zeros((11, 1)))
        b = Trajectory(t2, np.zeros((11, 1)))
        with pytest.raises(SimError):
            compare(a, b, b, res, s.eps)

    def test_averaged_vs_ideal_quarters_under_eps_halving(self, worked_h):
        # degree-4 correction drives y away from the ideal flow at O(eps^2)
        # over a fixed slow horizon
        sups = []
        for eps in (0.4, 0.2):
            s = SchemeInstance("basic1d", worked_h, a=eps, eta=eps)
            T = 20.0 / eps ** 2
            dt = T / 4000
            res = average(scheme_graded_field(s, 4), 4, convention="w-zero-mean")
            g2 = compile_expr(res.g_exprs(2)[0])
            g4 = compile_expr(res.g_exprs(4)[0])

            def avg_rhs(t, y, _eps=eps):
                return np.asarray([_eps ** 2 * g2([y[0]]) + _eps ** 4 * g4([y[0]])])

            x0 = np.array([0.5])
            y_traj = integrate(avg_rhs, x0, T=T, dt=dt)
            z_traj = integrate(ideal_flow(s), x0, T=T, dt=dt)
            sups.append(np.max(np.abs(y_traj.states - z_traj.states)))
        ratio = sups[0] / sups[1]
        assert 2.5 < ratio < 6.0

    def test_dither_average_tracks_averaged_at_second_order(self, worked_h):
        # once the initial transient has settled, the period-averaged full
        # trajectory follows y(t) to O(eps^2): halving eps shrinks the
        # settled gap roughly fourfold
        gaps = []
        steps = 64
        for eps in (0.4, 0.2):
            s = SchemeInstance("basic1d", worked_h, a=eps, eta=eps)
            periods = max(8, int(4.0 / eps ** 2))
            T = periods * 2.0 * math.pi
            dt = 2.0 * math.pi / steps
            full = integrate(scheme_rhs(s), np.array([0.3]), T=T, dt=dt)
            res = average(scheme_graded_field(s, 2), 2, convention="match-at-t0")
            g2 = compile_expr(res.g_exprs(2)[0])
            y = integrate(lambda t, y: np.asarray([eps ** 2 * g2([y[0]])]),
                          np.array([0.3]), T=T, dt=dt)
            xs = full.states[:periods * steps, 0].reshape(periods, steps).mean(axis=1)
            ys = y.states[:periods * steps, 0].reshape(periods, steps).mean(axis=1)
            tail = slice(periods // 2, None)
            gaps.append(float(np.max(np.abs(xs[tail] - ys[tail]))))
        ratio = gaps[0] / gaps[1]
        assert 2.5 < ratio < 6.0


class TestConvergenceTime:
    def _decay(self):
        return integrate(lambda t, x: -x, np.array([1.0]), T=10.0, dt=1e-3)

    def test_log_hundred_for_percent_band(self):
        assert convergence_time(self._decay(), 0.0, 0.01) == pytest.approx(
            math.log(100.0), abs=0.01)

    def test_already_inside_is_zero(self):
        assert convergence_time(self._decay(), 1.0, 2.0) == 0.0

    def test_never_converging_is_infinite(self):
        traj = Trajectory(np.linspace(0.0, 1.0, 11), np.ones((11, 1)))
        assert convergence_time(traj, 5.0, 0.1) == math.inf

    def test_band_must_be_positive(self):
        with pytest.raises(SimError):
            convergence_time(self._decay(), 0.0, 0.0)


class TestPlantCouplingEmpirical:
    def test_slow_rate_error_within_bound(self, worked_h):
        # sup_t |xdot_full - xdot_slow| stays within 1.05x the analytic
        # coupling bound for several gain/frequency triples
        for a, eta, omega in [(0.209, 0.01, 0.477), (0.1, 0.02, 0.3),
                              (0.3, 0.005, 0.8)]:
            s = SchemeInstance("plant1d", worked_h, a=a, eta=eta, omega=omega)
            full_rhs = scheme_rhs(s)
            slow_rhs = plant_slow_rhs(s)
            T = 6.0 * 2.0 * math.pi / omega
            traj = integrate(full_rhs, np.array([0.8, 0.8]), T=T,
                             dt=2.0 * math.pi / (200.0 * omega))
            worst = 0.0
            for t, st in zip(traj.t, traj.states):
                xd_full = full_rhs(t, st)[1]
                xd_slow = slow_rhs(t, st[1:2])[0]
                worst = max(worst, abs(xd_full - xd_slow))
            # sup norms of the objective and its first derivative on [-1, 1]
            h0, h1 = 1.0, 1.5
            bound = plant_coupling_bound(a, eta, omega, h0, h1)
            assert worst <= 1.05 * bound


class TestPerformanceMap:
    A_GRID = np.geomspace(0.05, 1.5, 5)
    P_GRID = np.geomspace(0.3, 3.0, 4)

    def test_map_shape_and_determinism(self, worked_h, tmp_path):
        pm1 = performance_map(worked_h, self.A_GRID, self.P_GRID,
                              horizon_periods=60)
        pm2 = performance_map(worked_h, self.A_GRID, self.P_GRID,
                              horizon_periods=60)
        f1, f2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        pm1.write_csv(f1)
        pm2.write_csv(f2)
        assert f1.read_bytes() == f2.read_bytes()
        lines = f1.read_text().splitlines()
        assert lines[0] == "a,p,speed,error,feasible"
        assert len(lines) == 1 + self.A_GRID.size * self.P_GRID.size

    def test_error_floor_scales_with_amplitude(self):
        # on a quadratic bowl, large-amplitude cells cannot beat the
        # oscillation floor left by the dither
        a_grid = np.array([1.2, 1.5])
        p_grid = np.array([1.0])
        pm = performance_map(QUAD_H, a_grid, p_grid, horizon_periods=80)
        for i, a in enumerate(a_grid):
            assert pm.feasible[i, 0]
            assert pm.error[i, 0] >= 0.3 * a
        assert pm.error[1, 0] > pm.error[0, 0]

    def test_large_amplitude_degrades_first(self, worked_h):
        # scanning a upward at fixed p, infeasible or bad cells appear only
        # after the well-behaved small-a region
        a_grid = np.geomspace(0.05, 6.0, 8)
        p_grid = np.array([1.0])
        pm = performance_map(worked_h, a_grid, p_grid, horizon_periods=60)
        good = [bool(pm.feasible[i, 0]) for i in range(a_grid.size)]
        assert good[0]
        assert not good[-1]
        first_bad = good.index(False)
        assert all(not g for g in good[first_bad:])

    def test_map_agrees_with_scalar_integration(self):
        # the map's vectorized RK4 and the scalar integrate(scheme_rhs(...))
        # path must tell the same story cell by cell, escapes included
        h = parse_expr("-cos(x) + 0.15*x^3 + 0.04*x^4")
        a_grid, p_grid = np.array([0.3, 1.0, 1.6]), np.array([1.0, 20.0])
        periods, steps_per_period = 20, 200
        pm = performance_map(h, a_grid, p_grid, horizon_periods=periods,
                             steps_per_period=steps_per_period)
        assert not pm.feasible.all()
        dt = 2.0 * math.pi / steps_per_period
        n_steps = periods * steps_per_period
        tail = int(0.8 * n_steps)
        for i, a in enumerate(a_grid):
            for j in range(p_grid.size):
                s = SchemeInstance("basic1d", h, a, eta=p_grid[j] * a ** 3)
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        xs = integrate(scheme_rhs(s), [1.0], n_steps * dt, dt).states[:, 0]
                    feasible = bool(np.max(np.abs(xs)) <= 1e6)
                except SimulationOverflowError:
                    feasible = False
                assert feasible == pm.feasible[i, j], (a, p_grid[j])
                if feasible:
                    err = float(np.max(np.abs(xs[tail + 1:])))
                    assert err == pytest.approx(pm.error[i, j], rel=1e-9, abs=0.0)

    def test_csv_bytes_match_per_value_formatting(self, tmp_path):
        a, p = np.array([0.1, 0.35, 1.2]), np.array([0.5, 7.0])
        speed = np.array([[0.0, 0.013], [1.0 / 3.0, 2e-7], [0.0, 0.0]])
        error = np.array([[math.inf, 0.25], [1e-12, 0.5], [math.inf, math.inf]])
        feasible = np.isfinite(error)
        path = tmp_path / "map.csv"
        PerfMap(a, p, speed, error, feasible).write_csv(path)
        want = "a,p,speed,error,feasible\n" + "".join(
            "%.17g,%.17g,%.17g,%.17g,%d\n" % (a[i], p[j], speed[i, j], error[i, j],
                                              1 if feasible[i, j] else 0)
            for i in range(a.size) for j in range(p.size))
        assert path.read_text() == want

    def test_grid_validation(self):
        with pytest.raises(SimError):
            PerfMap(np.array([1.0, 0.5]), np.array([1.0]),
                    np.zeros((2, 1)), np.zeros((2, 1)),
                    np.ones((2, 1), dtype=bool))


# ---------------------------------------------------------------------------
# oracle: one RK4 written out by hand in plain numpy, outside the library

ORACLE_H = parse_expr("-cos(x) + 0.15*x^3 + 0.04*x^4 + 0.1*(exp(x) - 1 - x)")
ORACLE_H2 = parse_expr("-cos(x1) + 0.5*x2^2 + 0.1*x1^3 + 0.2*exp(x2)", dim=2)


def oracle_h(v):
    # the objective with the operations of its compiled form, in order
    return (-1.0 * np.cos(v) + 0.15 * (v * v * v) + 0.04 * ((v * v) * (v * v))
            + 0.1 * (np.exp(v) + -1.0 * v + -1.0))


def oracle_h2(v, w):
    return -1.0 * np.cos(v) + 0.5 * (w * w) + 0.1 * (v * v * v) + 0.2 * np.exp(w)


# repeats cos(x), exp(x) and a power's base, so its source binds temporaries
REPEAT_H = parse_expr("-cos(x) + 0.1*cos(x)^2*exp(x) + 0.2*(exp(x) - 1 - x)^2")


def oracle_repeat_h(v):
    # REPEAT_H with the operations of its compiled form, each shared value once
    c, e = np.cos(v), np.exp(v)
    b = e - v + -1.0
    return 0.1 * (c * c) * e - c + 0.2 * (b * b)


def oracle_rhs(kind, a, eta, mu=None, gamma=None, omega=None):
    """Each scheme's right-hand side as its closed form reads."""
    def f(t, x):
        if kind == "basic1d":
            u = np.sin(t)
            return np.array([-eta * oracle_h(x[0] + a * u) * u])
        if kind == "plant1d":
            u = np.sin(omega * t)
            return np.array([-x[0] + x[1] + a * u, -(eta * omega) * oracle_h(x[0]) * u])
        if kind == "filtered1d":
            u = np.sin(t)
            err = oracle_h(x[0] + a * u) - x[1]
            return np.array([-eta * x[2], mu * err, gamma * (-(a / 2.0) * x[2] + err * u)])
        d1, d2 = np.cos(t), np.sin(t)
        v = oracle_h2(x[0] + a * d1, x[1] + a * d2)
        return np.array([-eta * d1 * v, -eta * d2 * v])
    return f


def oracle_rk4(f, x0, n_steps, dt):
    x = np.array(x0, dtype=float)
    out = [x]
    t = 0.0
    for _ in range(n_steps):
        k1 = f(t, x)
        k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = f(t + dt, x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        out.append(x)
    return np.array(out)


def oracle_cell(a, eta, periods, steps_per_period=200, x0=1.0, x_star=0.0):
    """(speed, error, feasible) of one gain-map cell, from the hand RK4."""
    dt = 2.0 * math.pi / steps_per_period
    with np.errstate(over="ignore", invalid="ignore"):
        xs = oracle_rk4(oracle_rhs("basic1d", a, eta), [x0], periods * steps_per_period, dt)
    dev = np.abs(xs[1:, 0] - x_star)
    if not np.all(dev <= 1e6 * max(1.0, abs(x0 - x_star))):
        return 0.0, math.inf, False
    speed = 0.0
    for k in range(periods):
        acc = 0.0
        for v in xs[1 + k * steps_per_period:1 + (k + 1) * steps_per_period, 0]:
            acc += v
        if abs(acc / steps_per_period - x_star) <= 0.5 * abs(x0 - x_star):
            speed = 1.0 / ((k + 1.0) * (2.0 * math.pi))
            break
    return speed, float(np.max(dev[int(0.8 * dev.size):])), True


class TestStepperOracle:
    GAINS = {"basic1d": dict(a=0.3, eta=0.05), "plant1d": dict(a=0.3, eta=0.04, omega=0.6),
             "filtered1d": dict(a=0.33, eta=0.01, mu=0.093, gamma=3.8),
             "planar": dict(a=0.3, eta=0.05)}
    X0 = {"basic1d": [0.8], "plant1d": [0.8, 0.7], "filtered1d": [0.8, 0.2, 0.1],
          "planar": [0.6, -0.5]}

    @pytest.mark.parametrize("kind", ["basic1d", "plant1d", "filtered1d", "planar"])
    def test_integrate_equals_hand_rk4(self, kind):
        g = self.GAINS[kind]
        s = SchemeInstance(kind, ORACLE_H2 if kind == "planar" else ORACLE_H, **g)
        dt, n = 2.0 * math.pi / 200, 1500
        want = oracle_rk4(oracle_rhs(kind, **g), self.X0[kind], n, dt)
        assert np.array_equal(integrate(scheme_rhs(s), self.X0[kind], n * dt, dt).states, want)
        # a plain callable takes the generic array path, with the same bits
        got = integrate(lambda t, x: scheme_rhs(s)(t, x), self.X0[kind], n * dt, dt)
        assert np.array_equal(got.states, want)

    def test_repeated_subtrees_march_equals_hand_rk4(self, monkeypatch):
        # each stage evaluates cos(x) and exp(x) once, the float and cells
        # marches equal the hand RK4 bit for bit, and a lone-cell map (on
        # floats) equals its row of a 2x1 map (on cells)
        compiled = []
        real = symexpr._compile_factory
        monkeypatch.setattr(symexpr, "_compile_factory",
                            lambda *args: compiled.append(args) or real(*args))
        dt, n = 2.0 * math.pi / 200, 600
        cells = [dict(a=0.3, eta=0.05, x0=0.8), dict(a=0.45, eta=0.02, x0=-0.6)]
        fields = [scheme_rhs(SchemeInstance("basic1d", REPEAT_H, a=c["a"], eta=c["eta"]))
                  for c in cells]
        gains = {k: np.array([f.params[k] for f in fields]) for k in fields[0].params}
        on_cells, _ = Field(fields[0].comps, fields[0].body, fields[0].dither,
                            **gains).rk4(dt)(0.0, (np.array([c["x0"] for c in cells]),), n)
        for i, (c, field) in enumerate(zip(cells, fields)):
            def f(t, x, a=c["a"], eta=c["eta"]):
                u = np.sin(t)
                return np.array([-eta * oracle_repeat_h(x[0] + a * u) * u])
            want = oracle_rk4(f, [c["x0"]], n, dt)
            assert np.array_equal(integrate(field, [c["x0"]], n * dt, dt).states, want)
            assert np.array_equal(on_cells[:, :, i], want[1:])
        for source, flavour, *rest in compiled:
            if flavour == "cells":
                source = symexpr._in_place(source, rest[0], dict(rest[1]))
                assert "positive(" not in source   # no temporary aliases another
            stages = [line for line in source.splitlines() if line.strip().startswith("v = ")]
            assert len(stages) == 4
            assert all(line.count("cos(") == line.count("exp(") == 1 for line in stages)
        a_grid, p_grid = np.array([0.3, 0.9]), np.array([2.0])
        grid = performance_map(REPEAT_H, a_grid, p_grid, horizon_periods=12)
        for i in range(a_grid.size):
            one = performance_map(REPEAT_H, a_grid[i:i + 1], p_grid, horizon_periods=12)
            assert (one.speed[0, 0], one.error[0, 0], one.feasible[0, 0]) == \
                (grid.speed[i, 0], grid.error[i, 0], grid.feasible[i, 0])
        assert {flavour for _, flavour, *_ in compiled} == {"float", "cells"}

    def test_ideal_flow_equals_hand_rk4(self):
        s = SchemeInstance("basic1d", ORACLE_H, a=0.3, eta=0.05)
        rate = s.a * s.eta / 2.0

        def flow(t, z):
            # h' = sin(x) + 3 (0.15) x^2 + 4 (0.04) x^3 + 0.1 (exp(x) - 1), in
            # the operations of its compiled form; 3.0 * 0.15 rounds to
            # 0.44999999999999996
            v = z[0]
            return np.array([-rate * (np.sin(v) + 0.44999999999999996 * (v * v)
                                      + 0.16 * (v * v * v) + 0.1 * (np.exp(v) + -1.0))])
        dt = 0.05
        got = integrate(ideal_flow(s), [0.9], 400 * dt, dt).states
        assert np.array_equal(got, oracle_rk4(flow, [0.9], 400, dt))

    @pytest.mark.parametrize("kind", ["basic1d", "plant1d", "filtered1d", "planar"])
    def test_cells_march_equals_float_march(self, kind):
        # three cells with array gains run on numpy arrays; each
        # cell equals its own march on Python floats, bit for bit
        field = scheme_rhs(SchemeInstance(kind, ORACLE_H2 if kind == "planar" else ORACLE_H,
                                          **self.GAINS[kind]))
        scale = np.array([0.5, 1.0, 1.7])
        gains = {k: v * scale for k, v in field.params.items()}
        x0 = tuple(v * scale for v in self.X0[kind])
        got, t_cells = Field(field.comps, field.body, field.dither, **gains).rk4(0.05)(0.0, x0, 300)
        for c in range(scale.size):
            one = Field(field.comps, field.body, field.dither,
                        **{k: float(v[c]) for k, v in gains.items()})
            want, t_one = one.rk4(0.05)(0.0, tuple(float(v[c]) for v in x0), 300)
            assert [tuple(float(v[c]) for v in st) for st in got] == want
            assert t_cells == t_one

    def test_cells_split_into_blocks_equal_whole_periods(self):
        # 1089 cells march 30 of a period's 40 steps per block, so the tail
        # start (step 352, 32 steps into period 8, in its second block), the
        # period sums and escapes cross block ends; each row of 33 cells
        # runs whole periods and must agree
        a_grid, p_grid = np.geomspace(0.02, 1.6, 33), np.geomspace(0.5, 60.0, 33)
        kw = dict(horizon_periods=11, steps_per_period=40)
        grid = performance_map(ORACLE_H, a_grid, p_grid, **kw)
        assert 0 < grid.feasible.sum() < grid.feasible.size
        for i in range(a_grid.size):
            row = performance_map(ORACLE_H, a_grid[i:i + 1], p_grid, **kw)
            assert np.array_equal(row.error[0], grid.error[i])
            assert np.array_equal(row.speed[0], grid.speed[i])
            assert np.array_equal(row.feasible[0], grid.feasible[i])

    def test_map_cells_equal_hand_rk4(self):
        periods = 12
        a_grid, p_grid = np.array([0.3, 0.9, 1.6]), np.array([1.0, 30.0])
        eta = np.repeat(a_grid, p_grid.size) ** 3 * np.tile(p_grid, a_grid.size)
        grid = performance_map(ORACLE_H, a_grid, p_grid, horizon_periods=periods)
        assert not grid.feasible.all() and grid.feasible.any()
        for cell in range(eta.size):
            i, j = divmod(cell, p_grid.size)
            want = oracle_cell(a_grid[i], eta[cell], periods)
            assert (grid.speed[i, j], grid.error[i, j], grid.feasible[i, j]) == want
            # the same cell alone steps on Python floats
            one = performance_map(ORACLE_H, a_grid[i:i + 1], p_grid[j:j + 1],
                                  horizon_periods=periods)
            assert (one.speed[0, 0], one.error[0, 0], one.feasible[0, 0]) == want

    def test_off_origin_target_equals_hand_rk4(self):
        # with x* = 0.1 a block's largest |x - x*| comes from its greatest
        # state in the cell at (a, p) = (0.3, 1), whose tail stays above x*,
        # and from its least in the cell at (0.9, 1), whose tail swings across
        # x*; the tail starts 9.6 periods in, inside a block, and the cells
        # at a = 1.6 escape
        periods, x_star = 12, 0.1
        a_grid, p_grid = np.array([0.3, 0.9, 1.6]), np.array([1.0, 30.0])
        eta = np.repeat(a_grid, p_grid.size) ** 3 * np.tile(p_grid, a_grid.size)
        grid = performance_map(ORACLE_H, a_grid, p_grid, horizon_periods=periods,
                               x_star=x_star)
        assert not grid.feasible.all() and grid.feasible.any()
        tails = [oracle_rk4(oracle_rhs("basic1d", a_grid[i], eta[2 * i]), [1.0],
                            periods * 200, 2.0 * math.pi / 200)[1920:, 0] for i in (0, 1)]
        assert x_star < tails[0].min()
        assert tails[1].min() < x_star < tails[1].max()
        assert x_star - tails[1].min() > tails[1].max() - x_star
        for cell in range(eta.size):
            i, j = divmod(cell, p_grid.size)
            want = oracle_cell(a_grid[i], eta[cell], periods, x_star=x_star)
            assert (grid.speed[i, j], grid.error[i, j], grid.feasible[i, j]) == want

class TestCellsMarchBuffers:
    """A march over cells writes every operation into buffers allocated once
    per march; the states it returns are its own and stay as returned."""

    SCALE = np.array([0.5, 1.0, 1.7])

    def cells(self, field):
        return Field(field.comps, field.body, field.dither,
                     **{k: v * self.SCALE for k, v in field.params.items()})

    def test_returned_states_survive_later_steps_and_calls(self):
        march = self.cells(scheme_rhs(SchemeInstance("basic1d", ORACLE_H, a=0.3, eta=0.05))
                           ).rk4(0.05)
        x0 = np.array([0.8, -0.4, 1.2])
        first, t = march(0.0, (x0.copy(),), 40)
        kept = first.copy()
        second, _ = march(t, (first[-1][0],), 40)
        again, _ = march(0.0, (x0,), 40)
        assert first.shape == (40, 1, 3)
        assert np.array_equal(first, kept)       # untouched by a later call
        assert np.array_equal(x0, [0.8, -0.4, 1.2])   # the start state is only read
        assert np.array_equal(again, first)
        assert not np.shares_memory(first, second)
        # row k holds step k + 1's state, not a buffer a later step rewrote
        for k in (1, 2, 7, 40):
            assert np.array_equal(march(0.0, (x0,), k)[0][-1], first[k - 1])
        assert np.array_equal(np.concatenate([first, second]), march(0.0, (x0,), 80)[0])

    @pytest.mark.parametrize("comps,dither", [
        (["x1", "neg_w*x0"], ()),                      # a component that is a state
        (["u", "neg_w*x0 + x1*u"], [("u", "sin(t)")]),   # one that is the dither
        (["g", "neg_w*g"], ()),                        # one that is a body name
    ], ids=["state", "dither", "body"])
    def test_bare_name_components_equal_float_march(self, comps, dither):
        # a component that only names a value is a copy on cells, since the
        # value's buffer is rewritten in the next stage
        body = [("g", "x0 + x1")] if "g" in comps else []
        field = Field(comps, body, dither, neg_w=-2.0)
        got, t_cells = self.cells(field).rk4(0.05)(0.0, (self.SCALE, -self.SCALE), 60)
        for c in range(self.SCALE.size):
            one = Field(comps, body, dither, neg_w=-2.0 * float(self.SCALE[c]))
            want, t_one = one.rk4(0.05)(0.0, (float(self.SCALE[c]), -float(self.SCALE[c])), 60)
            assert [tuple(float(v[c]) for v in st) for st in got] == want
            assert t_cells == t_one

    def test_operation_outside_the_grammar_refused_on_cells(self):
        # only arithmetic and sin, cos, exp run in place; anything else on
        # cells could return a view of a buffer that the next stage rewrites
        field = Field(["_f[0]"], [("_f", "asarray([a*x0])")], a=self.SCALE)
        with pytest.raises(ExprError):
            field.rk4(0.05)
        states, _ = Field(["_f[0]"], [("_f", "asarray([a*x0])")], a=0.5).rk4(0.05)(0.0, (1.0,), 2)
        assert len(states) == 2   # on floats it runs


def scheme_field_of(kind):
    """The exact field of a catalog scheme, or of plant1d's slow reduction."""
    slow = kind == "plant_slow"
    s = SchemeInstance("plant1d" if slow else kind, ORACLE_H2 if kind == "planar" else ORACLE_H,
                       **TestStepperOracle.GAINS["plant1d" if slow else kind])
    return plant_slow_rhs(s) if slow else scheme_rhs(s)


FIELD_KINDS = ["basic1d", "plant1d", "filtered1d", "planar", "plant_slow"]


class TestDitherContract:
    """A march computes the dither once per stage time and the body and the
    components at every stage: a dither may read only the time, the
    parameters and earlier dither names, and an operation on those alone
    belongs in the dither."""

    @pytest.mark.parametrize("dither", [
        [("u", "x0*sin(t)")],                      # the state
        [("u", "sin(t)"), ("au", "a*g")],          # a body name
        [("au", "a*u"), ("u", "sin(t)")],          # a later dither name
        [("u", "sin(t)"), ("au", "b*u")],          # no such parameter
    ], ids=["state", "body", "later", "unknown"])
    def test_dither_reading_more_than_time_refused(self, dither):
        with pytest.raises(ExprError):
            Field(["g*u"], [("g", "x0 + u")], dither, a=0.5)

    @pytest.mark.parametrize("kind", FIELD_KINDS)
    def test_no_time_only_operation_left_to_the_stages(self, kind):
        # the field's dither passes the guard; an operation whose names are
        # all dither names and parameters would be recomputed at every stage
        # instead of once per stage time
        field = scheme_field_of(kind)
        timed = {name for name, _ in field.dither} | set(field.params)
        for src in [src for _, src in field.body] + list(field.comps):
            for node in ast.walk(ast.parse(src, mode="eval")):
                if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call)):
                    calls = {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call)}
                    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} - calls
                    assert not names or not names <= timed, ast.unparse(node)

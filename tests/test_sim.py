"""Tests for trajectory integration, error metrics, and the gain-plane map."""
import math

import numpy as np
import pytest

from esgain.averaging import average, transform_points
from esgain.contraction import plant_coupling_bound
from esgain.schemes import SchemeInstance, ideal_flow, plant_slow_rhs, scheme_rhs, \
    scheme_graded_field
from esgain.sim import (PerfMap, SimError, SimulationOverflowError, Trajectory,
                        compare, convergence_time, integrate, performance_map)
from esgain.symexpr import compile_expr, differentiate, parse_expr


QUAD_H = parse_expr("0.5*x^2")


class TestTrajectory:
    def test_uniform_grid_required(self):
        with pytest.raises(SimError):
            Trajectory(np.array([0.0, 0.1, 0.3]), np.zeros((3, 1)))

    def test_non_finite_states_rejected(self):
        s = np.zeros((3, 1))
        s[2, 0] = np.nan
        with pytest.raises(SimError):
            Trajectory(np.array([0.0, 0.1, 0.2]), s)

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

    def test_grid_validation(self):
        with pytest.raises(SimError):
            PerfMap(np.array([1.0, 0.5]), np.array([1.0]),
                    np.zeros((2, 1)), np.zeros((2, 1)),
                    np.ones((2, 1), dtype=bool))

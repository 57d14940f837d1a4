import math
import random

import numpy as np
import pytest

from esgain.averaging import (AveragingError, ResidualPreconditionError, average,
                              autonomy_residual, transform_points)
from esgain.fourieralg import GradedField, TrigPoly, unit_term
from esgain.schemes import SchemeInstance, reference_averaged, scheme_graded_field
from esgain.symexpr import Var, compile_expr, eval_expr, is_zero, parse_expr, sin_of


def basic_scheme(worked_h, a=1.0, eta=1.0, order=6):
    return SchemeInstance("basic1d", worked_h, a=a, eta=eta, m=1, n=1,
                          taylor_order=order)


class TestAverage:
    def test_dominant_degree_is_half_p_times_gradient(self, worked_h):
        s = basic_scheme(worked_h, a=1.0, eta=1.0)  # p = 1
        res = average(scheme_graded_field(s, 2), 2)
        g2 = res.g_exprs(2)[0]
        # -(p/2) h'(1) with h'(1) = sin(1) + 1/2
        assert eval_expr(g2, [1.0]) == pytest.approx(-0.5 * (math.sin(1.0) + 0.5),
                                                     abs=1e-12)
        assert eval_expr(g2, [1.0]) == pytest.approx(-0.67074, abs=1e-5)

    def test_degree_four_structure(self, worked_h):
        s = basic_scheme(worked_h, a=0.3, eta=0.21)
        res = average(scheme_graded_field(s, 4), 4, convention="w-zero-mean")
        ref = reference_averaged(s)
        ys = np.linspace(-0.95, 0.95, 50)
        got = np.broadcast_to(compile_expr(res.g_exprs(4)[0])([ys]), ys.shape)
        want = np.broadcast_to(compile_expr(ref.degree_fields[4][0])([ys]), ys.shape)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_zero_field_averages_to_zero(self):
        z = GradedField.zero(1, 3)
        res = average(z, 3)
        for d in (1, 2, 3):
            assert all(is_zero(e) for e in res.g_exprs(d))
        assert res.w.is_zero
        assert all(u.is_zero for u in res.u)

    def test_planar_quadrature_cross_terms(self):
        from esgain.symexpr import parse_expr
        h = parse_expr("sin(x1) + 0.5*x2^2", dim=2)
        s = SchemeInstance("planar", h, a=0.2, eta=0.25, taylor_order=4)
        res = average(scheme_graded_field(s, 2), 2, convention="w-zero-mean")
        ref = reference_averaged(s)
        pts = np.linspace(-0.8, 0.8, 9)
        for c in range(2):
            got = compile_expr(res.g_exprs(2)[c])
            want = compile_expr(ref.degree_fields[2][c])
            for y1 in pts:
                for y2 in pts:
                    assert float(got([y1, y2])) == pytest.approx(
                        float(want([y1, y2])), abs=1e-12)

    def test_order_exceeding_field_rejected(self, worked_h):
        s = basic_scheme(worked_h)
        f = scheme_graded_field(s, 2)
        with pytest.raises(AveragingError):
            average(f, 3)


class TestStructuralInvariants:
    def test_averaged_fields_time_independent(self, worked_h):
        # structural: g_i carry no trig factors at all (they are plain Exprs)
        s = basic_scheme(worked_h)
        res = average(scheme_graded_field(s, 4), 4)
        for d in (1, 2, 3, 4):
            for e in res.g_exprs(d):
                eval_expr(e, [0.5])  # evaluable with no time argument

    def test_transform_terms_have_zero_mean(self, worked_h):
        s = basic_scheme(worked_h)
        res = average(scheme_graded_field(s, 4), 4, convention="u-zero-mean")
        for i, ui in enumerate(res.u, start=1):
            for term in ui.terms:
                assert term.time.mean == 0.0, f"u_{i} has a nonzero time mean"

    def test_generator_is_periodic_trig(self, worked_h):
        s = basic_scheme(worked_h)
        res = average(scheme_graded_field(s, 3), 3)
        assert all(isinstance(t.time, TrigPoly) for t in res.w.terms)

    def test_odd_degrees_vanish_for_sinusoidal_dither(self, worked_h):
        s = basic_scheme(worked_h)
        res = average(scheme_graded_field(s, 4), 4)
        ys = np.linspace(-0.9, 0.9, 11)
        for d in (1, 3):
            for e in res.g_exprs(d):
                assert all(abs(eval_expr(e, [y])) < 1e-14 for y in ys)

    def test_engine_matches_reference_on_random_points(self, worked_h):
        rng = random.Random(4)
        s = basic_scheme(worked_h, a=0.25, eta=0.1)
        res = average(scheme_graded_field(s, 4), 4, convention="w-zero-mean")
        ref = reference_averaged(s)
        for _ in range(100):
            y = rng.uniform(-1.0, 1.0)
            for deg, exprs in ref.degree_fields.items():
                got = [eval_expr(e, [y]) for e in res.g_exprs(deg)]
                want = [eval_expr(e, [y]) for e in exprs]
                assert got == pytest.approx(want, abs=1e-9)


class TestTransform:
    def test_identity_at_eps_zero_limit(self, worked_h):
        s = basic_scheme(worked_h)
        res = average(scheme_graded_field(s, 2), 2)
        y = [0.4]
        x = transform_points(res, [y], [1.3], 1e-9)[0]
        assert x[0] == pytest.approx(0.4, abs=1e-8)

    def test_leading_term_single_first_harmonic(self, worked_h):
        s = basic_scheme(worked_h)
        res = average(scheme_graded_field(s, 2), 2)
        u1 = res.u[0]
        assert len(u1.terms) == 1
        term = u1.terms[0]
        assert term.time.max_harmonic == 1
        # amplitude proportional to p * h(y)
        y = 0.6
        amp = math.hypot(term.time.cos_coeffs[0] if term.time.cos_coeffs else 0.0,
                         term.time.sin_coeffs[0] if term.time.sin_coeffs else 0.0)
        hv = eval_expr(worked_h, [y])
        sv = eval_expr(term.space[0], [y])
        assert abs(amp * sv) == pytest.approx(abs(s.p * hv), rel=1e-12)

    def test_period_mean_of_transform_is_identity(self, worked_h):
        s = basic_scheme(worked_h)
        res = average(scheme_graded_field(s, 3), 3, convention="u-zero-mean")
        ts = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        y = 0.3
        xs = transform_points(res, np.full((ts.size, 1), y), ts, 0.2)
        assert float(np.mean(xs[:, 0])) == pytest.approx(y, abs=1e-12)

    def test_vectorized_matches_pointwise(self, worked_h):
        s = basic_scheme(worked_h)
        res = average(scheme_graded_field(s, 3), 3)
        ys = np.linspace(-0.8, 0.8, 7)[:, None]
        ts = np.linspace(0, 6, 7)
        batch = transform_points(res, ys, ts, 0.15)
        for i in range(7):
            single = transform_points(res, [[ys[i, 0]]], [ts[i]], 0.15)[0]
            assert batch[i, 0] == single[0]


class TestResidual:
    def test_exponent_tracks_order(self, worked_h):
        s = basic_scheme(worked_h, eta=0.8)
        for n in (1, 2, 3):
            f = scheme_graded_field(s, n + 1)
            res = average(f, n, convention="w-zero-mean")
            rep = autonomy_residual(f, res, [0.2, 0.141, 0.1, 0.0707, 0.05],
                                    samples=40)
            assert abs(rep.exponent - (n + 1)) <= 0.3

    def test_eps_halving_quarters_first_order_residual(self, worked_h):
        s = basic_scheme(worked_h, eta=0.8)
        f = scheme_graded_field(s, 2)
        res = average(f, 1)
        rep = autonomy_residual(f, res, [1e-2, 5e-3], samples=25)
        ratio = rep.sup_residuals[0] / rep.sup_residuals[1]
        assert ratio == pytest.approx(4.0, rel=0.15)

    def test_zero_field_residual_exactly_zero(self):
        z = GradedField.zero(1, 2)
        res = average(z, 2)
        rep = autonomy_residual(z, res, [0.1, 0.05], samples=10)
        assert rep.sup_residuals == (0.0, 0.0)
        assert rep.exponent == math.inf

    def test_planar_exponent_tracks_order(self):
        # dim 2: the stacked Jacobian solve mixes both components
        from esgain.symexpr import parse_expr
        h = parse_expr("sin(x1) + 0.5*x2^2", dim=2)
        s = SchemeInstance("planar", h, a=0.2, eta=0.25, taylor_order=4)
        f = scheme_graded_field(s, 4)
        res = average(f, 3, convention="w-zero-mean")
        rep = autonomy_residual(f, res, [0.2, 0.1, 0.05], samples=40)
        assert rep.sample_count == 40
        assert abs(rep.exponent - (res.order + 1)) <= 0.5

    def test_three_state_field_takes_a_sample_count(self, worked_h):
        # dim 3 needs a fourth lattice multiplier: three axes and time
        s = SchemeInstance("filtered1d", worked_h, a=0.2, eta=0.02, mu=0.05, gamma=1.0)
        f = scheme_graded_field(s, 3)
        res = average(f, 2, convention="w-zero-mean")
        rep = autonomy_residual(f, res, [0.2, 0.1, 0.05], samples=10)
        assert rep.sample_count == 10
        assert abs(rep.exponent - (res.order + 1)) <= 0.5

    def test_sample_lattice_unchanged_up_to_two_states(self, worked_h):
        # a count and the explicit golden-ratio lattice it stands for agree
        s = SchemeInstance("planar", parse_expr("sin(x1) + 0.5*x2^2", dim=2), a=0.2,
                           eta=0.25, taylor_order=3)
        f = scheme_graded_field(s, 3)
        res = average(f, 2, convention="w-zero-mean")
        k = np.arange(12, dtype=float)
        phis = (0.6180339887498949, 0.7548776662466927, 0.5698402909980532)
        pts = [([-0.9 + 1.8 * ((i * phis[0]) % 1.0), -0.9 + 1.8 * ((i * phis[1]) % 1.0)],
                2.0 * math.pi * ((i * phis[2]) % 1.0)) for i in k]
        assert autonomy_residual(f, res, [0.2, 0.1], samples=12) == \
            autonomy_residual(f, res, [0.2, 0.1], samples=pts)

    def test_ill_conditioned_jacobian_names_first_sample(self, worked_h):
        s = basic_scheme(worked_h, eta=0.8)
        f = scheme_graded_field(s, 2)
        res = average(f, 1)
        # every Jacobian has condition number >= 1; sample 0 is (y, t) = (-0.9, 0)
        with pytest.raises(ResidualPreconditionError, match=r"y=\[-0\.9\], t=0\.0, eps=0\.2"):
            autonomy_residual(f, res, [0.2, 0.1], samples=5, cond_threshold=0.5)

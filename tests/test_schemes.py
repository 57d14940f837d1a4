"""Tests for the scheme catalog: right-hand sides, graded fields, references."""
import math

import numpy as np
import pytest

from esgain.averaging import average
from esgain.schemes import (DitherSpec, SchemeError, SchemeInstance, ideal_flow,
                            plant_slow_rhs, reference_averaged, scheme_graded_field,
                            scheme_rhs)
from esgain.sim import integrate
from esgain.symexpr import (Const, Domain1D, Var, add, compile_expr, differentiate,
                            eval_expr, mul, nth_derivative, parse_expr, powi,
                            scan_supnorm)


BOWL_2D = parse_expr("0.5*x1^2 + 0.5*x2^2", dim=2)


class TestSchemeRhs:
    def test_basic_value_at_quarter_period(self, worked_h):
        s = SchemeInstance("basic1d", worked_h, a=0.2, eta=0.01)
        rhs = scheme_rhs(s)
        # -eta * h(0 + a*sin(pi/2)) * sin(pi/2) with h(0.2) = -cos(0.2) + 0.2^3/6
        h02 = -math.cos(0.2) + 0.2 ** 3 / 6.0
        got = rhs(math.pi / 2.0, np.array([0.0]))
        assert got[0] == pytest.approx(-0.01 * h02, rel=1e-14)
        assert got[0] == pytest.approx(0.00978733, abs=1e-8)

    def test_basic_rhs_linear_in_eta(self, worked_h):
        # the drive is proportional to eta, so it vanishes in the eta -> 0 limit
        lo = SchemeInstance("basic1d", worked_h, a=0.2, eta=1e-12)
        hi = SchemeInstance("basic1d", worked_h, a=0.2, eta=1.0)
        for t, x in [(0.3, 0.1), (1.7, -0.4), (4.0, 0.9)]:
            vlo = scheme_rhs(lo)(t, np.array([x]))[0]
            vhi = scheme_rhs(hi)(t, np.array([x]))[0]
            assert vlo == pytest.approx(1e-12 * vhi, rel=1e-12)
            assert abs(vlo) < 1e-11

    def test_filtered_equilibrium_at_zero_dither_limit(self, worked_h):
        # at (x*, h(x*), 0) with vanishing dither amplitude, all rates vanish
        xs = 0.0  # argmin of the objective on [-1, 1]
        s = SchemeInstance("filtered1d", worked_h, a=1e-8, eta=0.01,
                           mu=0.1, gamma=1.0)
        rhs = scheme_rhs(s)
        state = np.array([xs, eval_expr(worked_h, [xs]), 0.0])
        for t in (0.0, 1.0, 2.5, 5.0):
            assert np.max(np.abs(rhs(t, state))) < 1e-13

    def test_plant_state_order_and_drive(self, worked_h):
        s = SchemeInstance("plant1d", worked_h, a=0.2, eta=0.01, omega=0.5)
        rhs = scheme_rhs(s)
        t, z, x = 0.7, 0.3, -0.1
        u = math.sin(s.omega * t)
        got = rhs(t, np.array([z, x]))
        assert got[0] == pytest.approx(-z + x + s.a * u, rel=1e-14)
        assert got[1] == pytest.approx(
            -s.eta * s.omega * eval_expr(worked_h, [z]) * u, rel=1e-14)

    def test_plant_slow_reduction_is_basic_at_dither_frequency(self, worked_h):
        s = SchemeInstance("plant1d", worked_h, a=0.2, eta=0.01, omega=0.5)
        slow = plant_slow_rhs(s)
        hf = compile_expr(worked_h)
        for t, x in [(0.0, 0.4), (3.1, -0.2), (9.9, 0.8)]:
            u = math.sin(s.omega * t)
            want = -s.eta * s.omega * hf([x + s.a * u]) * u
            assert slow(t, np.array([x]))[0] == pytest.approx(want, rel=1e-13)

    def test_planar_quadrature_channels(self):
        s = SchemeInstance("planar", BOWL_2D, a=0.1, eta=0.05)
        rhs = scheme_rhs(s)
        t = 0.9
        d1, d2 = math.cos(t), math.sin(t)
        x = np.array([0.3, -0.6])
        hv = 0.5 * ((x[0] + s.a * d1) ** 2 + (x[1] + s.a * d2) ** 2)
        got = rhs(t, x)
        assert got[0] == pytest.approx(-s.eta * d1 * hv, rel=1e-13)
        assert got[1] == pytest.approx(-s.eta * d2 * hv, rel=1e-13)

    def test_instance_validation(self, worked_h):
        with pytest.raises(SchemeError):
            SchemeInstance("nope", worked_h, a=0.1, eta=0.1)
        with pytest.raises(SchemeError):
            SchemeInstance("basic1d", worked_h, a=-0.1, eta=0.1)
        with pytest.raises(SchemeError):
            SchemeInstance("filtered1d", worked_h, a=0.1, eta=0.1)  # no mu/gamma
        with pytest.raises(SchemeError):
            SchemeInstance("plant1d", worked_h, a=0.1, eta=0.1)  # no omega
        with pytest.raises(SchemeError):
            SchemeInstance("basic1d", BOWL_2D, a=0.1, eta=0.1)  # too many vars


class TestGradedField:
    def test_low_degree_parts_match_hand_expansion(self, worked_h):
        # degree 1: -p sin(t) h(y); degree 2: -p sin^2(t) h'(y)
        s = SchemeInstance("basic1d", worked_h, a=0.5, eta=0.25)
        f = scheme_graded_field(s, 2)
        p = s.p
        h = compile_expr(worked_h)
        h1 = compile_expr(differentiate(worked_h))
        for y in (-0.8, 0.0, 0.37, 1.0):
            for t in (0.0, 0.4, 1.9, 5.5):
                d1 = sum(term.time.eval(t) * eval_expr(term.space[0], [y])
                         for term in f.terms if term.eps_degree == 1)
                d2 = sum(term.time.eval(t) * eval_expr(term.space[0], [y])
                         for term in f.terms if term.eps_degree == 2)
                assert d1 == pytest.approx(-p * math.sin(t) * h([y]), abs=1e-13)
                assert d2 == pytest.approx(-p * math.sin(t) ** 2 * h1([y]), abs=1e-13)

    @pytest.mark.parametrize("kind", ["basic1d", "filtered1d"])
    def test_taylor_fidelity_bound(self, worked_h, kind):
        # summed graded field differs from the exact rhs by at most the
        # Lagrange remainder ||h^(T+1)|| a^(T+1) / (T+1)! of h(y + a sin t),
        # times the gain it enters with: eta (basic1d), or mu and gamma
        # (filtered1d's estimate and gradient states)
        a, eta, mu, gamma, T = 0.3, 0.1, 0.2, 0.7, 4
        # the k-th Taylor term of h(y + a sin t) sits at eps-degree k + 1,
        # so the field is built through degree T + 1 to hold all of them
        if kind == "basic1d":
            s, scale = SchemeInstance(kind, worked_h, a=a, eta=eta), eta
        else:
            s = SchemeInstance(kind, worked_h, a=a, eta=eta, mu=mu, gamma=gamma)
            scale = max(mu, gamma)
        f = scheme_graded_field(s, T + 1)
        rhs = scheme_rhs(s)
        dom = Domain1D(-1.0, 1.0)
        rem = scan_supnorm(nth_derivative(worked_h, T + 1), dom)
        bound = scale * rem * a ** (T + 1) / math.factorial(T + 1)
        rng = np.random.default_rng(3)
        worst = 0.0
        for y in np.linspace(-0.7, 0.7, 9):
            # the filter states enter the field linearly, exactly in both forms
            state = [y, *rng.uniform(-1.0, 1.0, s.dim - 1)]
            for t in np.linspace(0.0, 2.0 * math.pi, 13):
                approx = f.eval(state, t, s.eps)
                exact = rhs(t, np.array(state))
                worst = max(worst, np.max(np.abs(approx - exact)))
        assert 0.0 < worst <= bound * (1.0 + 1e-12)

    def test_heavy_grading_puts_descent_at_degree_four(self, worked_h):
        # with eta = p eps^3, a = eps the first nonzero averaged degree is 4
        s = SchemeInstance("basic1d", worked_h, a=0.2, eta=0.01, m=3, n=1)
        res = average(scheme_graded_field(s, 4), 4, convention="w-zero-mean")
        ys = np.linspace(-0.9, 0.9, 7)
        for deg in (1, 2, 3):
            assert all(abs(eval_expr(e, [y])) < 1e-13
                       for e in res.g_exprs(deg) for y in ys)
        g4 = compile_expr(res.g_exprs(4)[0])
        assert max(abs(g4([y])) for y in ys) > 1e-3


class TestReferenceAveraged:
    def test_basic_dominant_term_value(self, worked_h):
        s = SchemeInstance("basic1d", worked_h, a=0.209, eta=0.01)
        ref = reference_averaged(s)
        # degree m+n in grading units scaled by eps^(m+n) is -(a eta / 2) h'
        got = s.eps ** 2 * ref.eval_degree(2, [1.0])[0]
        h1 = math.sin(1.0) + 0.5
        assert h1 == pytest.approx(1.34147, abs=1e-5)
        assert got == pytest.approx(-0.209 * 0.01 / 2.0 * h1, rel=1e-12)
        assert got == pytest.approx(-1.4018e-3, abs=1e-7)

    def test_planar_precession_magnitude(self):
        s = SchemeInstance("planar", BOWL_2D, a=0.1, eta=0.05)
        ref = reference_averaged(s)
        # physical cross term carries coefficient eta^2 / 2 times h(y)
        y = [0.4, 0.3]
        hy = 0.5 * (y[0] ** 2 + y[1] ** 2)
        grad = (y[0], y[1])
        vals = [eval_expr(c, y) for c in ref.averaged]
        want0 = -s.a * s.eta / 2.0 * grad[0] - s.eta ** 2 / 2.0 * hy * grad[1]
        want1 = -s.a * s.eta / 2.0 * grad[1] + s.eta ** 2 / 2.0 * hy * grad[0]
        assert vals[0] == pytest.approx(want0, rel=1e-12)
        assert vals[1] == pytest.approx(want1, rel=1e-12)

    def test_filtered_dominant_row_is_minus_eta_j(self, worked_h):
        s = SchemeInstance("filtered1d", worked_h, a=0.1, eta=0.01,
                           mu=0.1, gamma=1.0)
        ref = reference_averaged(s)
        for j in (-1.0, 0.0, 0.4, 2.0):
            v = eval_expr(ref.averaged[0], [0.3, 0.0, j])
            assert v == pytest.approx(-s.eta * j, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("m, n", [(2, 1), (3, 1), (1, 2)])
    def test_basic_reference_needs_equal_grading(self, worked_h, m, n):
        # other gradings put further engine terms at the reference's degrees
        s = SchemeInstance("basic1d", worked_h, a=0.2, eta=0.01, m=m, n=n)
        with pytest.raises(SchemeError, match="m = n = 1"):
            reference_averaged(s)

    def test_plant_reference_unsupported(self, worked_h):
        s = SchemeInstance("plant1d", worked_h, a=0.2, eta=0.01, omega=0.5)
        with pytest.raises(SchemeError):
            reference_averaged(s)


class TestEngineReferenceAgreement:
    def test_basic_degrees_two_and_four(self, worked_h):
        rng = np.random.default_rng(11)
        s = SchemeInstance("basic1d", worked_h, a=0.7, eta=0.9)
        res = average(scheme_graded_field(s, 4), 4, convention="w-zero-mean")
        ref = reference_averaged(s)
        pts = rng.uniform(-1.0, 1.0, size=100)
        for deg in (2, 4):
            got = compile_expr(res.g_exprs(deg)[0])
            want = compile_expr(ref.degree_fields[deg][0])
            for y in pts:
                assert got([y]) == pytest.approx(want([y]), abs=1e-9)

    def test_planar_degree_two(self):
        rng = np.random.default_rng(12)
        h = add(BOWL_2D, mul(Const(0.3), Var(0), powi(Var(1), 2)))
        s = SchemeInstance("planar", h, a=0.4, eta=0.3)
        res = average(scheme_graded_field(s, 2), 2, convention="w-zero-mean")
        ref = reference_averaged(s)
        for _ in range(100):
            y = rng.uniform(-1.0, 1.0, size=2)
            for c in (0, 1):
                got = eval_expr(res.g_exprs(2)[c], list(y))
                want = eval_expr(ref.degree_fields[2][c], list(y))
                assert got == pytest.approx(want, abs=1e-9)

    def test_filtered_dominant_rows(self, worked_h):
        s = SchemeInstance("filtered1d", worked_h, a=0.2, eta=0.02,
                           mu=0.04, gamma=0.4)
        res = average(scheme_graded_field(s, 2), 2, convention="w-zero-mean")
        ref = reference_averaged(s)
        rng = np.random.default_rng(13)
        for _ in range(50):
            y = list(rng.uniform(-0.9, 0.9, size=3))
            for deg, comps in ref.degree_fields.items():
                for c, want_e in enumerate(comps):
                    got = eval_expr(res.g_exprs(deg)[c], y)
                    want = eval_expr(want_e, y)
                    assert got == pytest.approx(want, abs=1e-9)

    def test_frequency_separated_planar_decouples(self):
        # with sin t / sin 2t dithers the degree-2 term has no cross coupling
        h = add(BOWL_2D, mul(Const(0.5), Var(0), Var(1)))
        s = SchemeInstance("planar", h, a=0.3, eta=0.2,
                           dither=DitherSpec.of(("sin", 1), ("sin", 2)))
        res = average(scheme_graded_field(s, 2), 2, convention="w-zero-mean")
        ref = reference_averaged(s)
        rng = np.random.default_rng(14)
        for _ in range(50):
            y = list(rng.uniform(-1.0, 1.0, size=2))
            for c in (0, 1):
                got = eval_expr(res.g_exprs(2)[c], y)
                want = eval_expr(ref.degree_fields[2][c], y)
                assert got == pytest.approx(want, abs=1e-9)


class TestDescentSign:
    @pytest.mark.parametrize("kind", ["basic1d", "plant1d", "filtered1d"])
    def test_one_dimensional_schemes_descend_quadratic_bowl(self, kind):
        h = parse_expr("0.5*x^2")
        kw = dict(a=0.1, eta=0.05)
        if kind == "plant1d":
            kw["omega"] = 0.5
        if kind == "filtered1d":
            kw.update(mu=0.2, gamma=2.0)
        s = SchemeInstance(kind, h, **kw)
        x0 = {"basic1d": [0.5], "plant1d": [0.5, 0.5],
              "filtered1d": [0.5, 0.5 ** 2 / 2.0, 0.0]}[kind]
        traj = integrate(scheme_rhs(s), np.array(x0), T=3000.0, dt=0.05)
        # plant1d carries (z, x); x is the slow knob in slot 1
        xi = 1 if kind == "plant1d" else 0
        tail = np.abs(traj.states[-200:, xi]).max()
        assert tail < 0.1
        assert tail < abs(x0[xi])

    def test_planar_descends_quadratic_bowl(self):
        s = SchemeInstance("planar", BOWL_2D, a=0.1, eta=0.05)
        traj = integrate(scheme_rhs(s), np.array([0.5, -0.4]), T=5000.0, dt=0.05)
        tail = np.linalg.norm(traj.states[-200:, :], axis=1).max()
        assert tail < 0.1


class TestIdealFlow:
    def test_fixed_point_at_origin(self, worked_h):
        s = SchemeInstance("basic1d", worked_h, a=0.2, eta=0.01)
        flow = ideal_flow(s)
        assert flow(0.0, np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_linearity_in_amplitude(self, worked_h):
        s1 = SchemeInstance("basic1d", worked_h, a=0.1, eta=0.01)
        s2 = SchemeInstance("basic1d", worked_h, a=0.2, eta=0.01)
        for y in (-0.5, 0.3, 0.9):
            v1 = ideal_flow(s1)(0.0, np.array([y]))[0]
            v2 = ideal_flow(s2)(0.0, np.array([y]))[0]
            assert v2 == pytest.approx(2.0 * v1, rel=1e-13)

    def test_planar_bowl_gradient_descent(self):
        s = SchemeInstance("planar", BOWL_2D, a=0.1, eta=0.05)
        flow = ideal_flow(s)
        z = np.array([0.7, -0.2])
        got = flow(0.0, z)
        rate = s.a * s.eta / 2.0
        assert np.allclose(got, -rate * z, rtol=1e-13)

    def test_filtered_rate_uses_eta(self, worked_h):
        s = SchemeInstance("filtered1d", worked_h, a=0.1, eta=0.02,
                           mu=0.1, gamma=1.0)
        flow = ideal_flow(s)
        h1 = compile_expr(differentiate(worked_h))
        y = 0.6
        assert flow(0.0, np.array([y]))[0] == pytest.approx(
            -s.eta * h1([y]), rel=1e-13)

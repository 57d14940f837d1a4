import math
import random

import numpy as np
import pytest

from conftest import WORKED_H_TEXT, random_expr
from esgain.fourieralg import (DimensionMismatchError, GradedField,
                               HarmonicOverflowError, SeparableTerm, TrigPoly,
                               exp_operator_apply, lie_bracket,
                               shifted_bracket, unit_term)
from esgain.schemes import SchemeInstance, scheme_graded_field
from esgain.symexpr import (Const, Var, cos_of, differentiate, eval_expr, mul, parse_expr,
                            sin_of)


def tp_sin(k=1, amp=1.0):
    return TrigPoly.sine(k, amp)


def tp_cos(k=1, amp=1.0):
    return TrigPoly.cosine(k, amp)


class TestTrigPoly:
    def test_sin_squared(self):
        p = tp_sin() * tp_sin()
        ts = np.linspace(0, 2 * math.pi, 37)
        assert np.allclose(p.eval(ts), np.sin(ts) ** 2, atol=1e-14)
        assert p.mean == pytest.approx(0.5)

    def test_multiplicative_identity(self):
        p = TrigPoly(0.3, (0.1, -0.2), (0.7,))
        q = p * TrigPoly.constant(1.0)
        assert q == p

    def test_cos_times_sin(self):
        p = tp_cos() * tp_sin()
        assert p.mean == 0.0
        ts = np.linspace(0, 2 * math.pi, 29)
        assert np.allclose(p.eval(ts), 0.5 * np.sin(2 * ts), atol=1e-14)

    def test_product_harmonic_bound(self):
        rng = random.Random(7)
        for _ in range(50):
            k1, k2 = rng.randrange(1, 5), rng.randrange(1, 5)
            p = TrigPoly(rng.uniform(-1, 1),
                         tuple(rng.uniform(-1, 1) for _ in range(k1)),
                         tuple(rng.uniform(-1, 1) for _ in range(k1)))
            q = TrigPoly(rng.uniform(-1, 1),
                         tuple(rng.uniform(-1, 1) for _ in range(k2)),
                         tuple(rng.uniform(-1, 1) for _ in range(k2)))
            r = p * q
            assert r.max_harmonic <= p.max_harmonic + q.max_harmonic
            ts = np.linspace(0.1, 2 * math.pi, 41)
            assert np.allclose(r.eval(ts), p.eval(ts) * q.eval(ts), atol=1e-12)

    def test_mean_is_c0(self):
        p = TrigPoly(1.25, (3.0,), (4.0, 5.0))
        assert p.mean == 1.25

    def test_trailing_zero_harmonics_trimmed(self):
        p = TrigPoly(1.0, (0.5, 0.0), (0.0, 0.0))
        assert p.max_harmonic == 1


class TestMeanAndAntiderivative:
    def test_cos_to_sin(self):
        p = tp_cos()
        mean, anti = p.mean, p.antiderivative()
        assert mean == 0.0
        assert anti == tp_sin()

    def test_constant_plus_second_harmonic(self):
        p = TrigPoly(0.5, (0.0, -0.5), ())
        mean, anti = p.mean, p.antiderivative()
        assert mean == 0.5
        assert anti == TrigPoly(0.0, (), (0.0, -0.25))

    def test_sin_to_minus_cos(self):
        p = tp_sin()
        mean, anti = p.mean, p.antiderivative()
        assert mean == 0.0
        assert anti == tp_cos(amp=-1.0)

    def test_antiderivative_mean_zero_coefficientwise(self):
        rng = random.Random(3)
        for _ in range(100):
            p = TrigPoly(rng.uniform(-2, 2),
                         tuple(rng.uniform(-2, 2) for _ in range(3)),
                         tuple(rng.uniform(-2, 2) for _ in range(3)))
            anti = p.antiderivative()
            assert anti.c0 == 0.0

    def test_antiderivative_differentiates_back(self):
        p = TrigPoly(0.0, (0.3, -1.0, 0.25), (2.0,))
        anti = p.antiderivative()
        assert anti.ddt() == p


def field_1d(*terms):
    return GradedField.build(1, 8, terms)


class TestLieOperators:
    def h_field(self, time, degree):
        h = sin_of(Var(0))
        return field_1d(unit_term(1, 0, h, time, degree))

    def test_bracket_with_itself_vanishes(self):
        w = self.h_field(tp_cos(), 1)
        b = lie_bracket(w, w, 8)
        assert b.is_zero

    def test_constant_fields_commute(self):
        w = field_1d(unit_term(1, 0, Const(2.0), tp_cos(), 1))
        f = field_1d(unit_term(1, 0, Const(-3.0), tp_sin(), 1))
        assert lie_bracket(w, f, 8).is_zero

    def test_proportional_space_parts_cancel(self):
        # w = cos t h(y), f = -sin t h(y): w f' - f w' = 0 pointwise
        w = self.h_field(tp_cos(), 1)
        f = self.h_field(tp_sin(-1 if False else 1, -1.0), 1)
        b = lie_bracket(w, f, 8)
        ys = np.linspace(-1, 1, 7)
        for y in ys:
            for t in np.linspace(0, 6.0, 5):
                assert abs(float(b.eval([y], t, 1.0)[0])) < 1e-14

    def test_bracket_matches_finite_differences(self):
        rng = random.Random(11)
        for _ in range(20):
            w = field_1d(unit_term(1, 0, random_expr(rng, 1, 3), tp_cos(), 1))
            f = field_1d(unit_term(1, 0, random_expr(rng, 1, 3), tp_sin(), 1))
            b = lie_bracket(w, f, 8)
            for _ in range(5):
                y, t = rng.uniform(-1, 1), rng.uniform(0, 6)
                step = 1e-6
                jf = (f.eval([y + step], t, 1.0)[0] - f.eval([y - step], t, 1.0)[0]) / (2 * step)
                jw = (w.eval([y + step], t, 1.0)[0] - w.eval([y - step], t, 1.0)[0]) / (2 * step)
                expected = jf * w.eval([y], t, 1.0)[0] - jw * f.eval([y], t, 1.0)[0]
                got = b.eval([y], t, 1.0)[0]
                if math.isfinite(expected) and abs(expected) < 1e6:
                    assert got == pytest.approx(expected, abs=1e-5, rel=1e-5)

    def test_shifted_bracket_of_zero_generator(self):
        f = self.h_field(tp_sin(), 1)
        z = GradedField.zero(1, 8)
        assert shifted_bracket(z, f, 8).is_zero

    def test_shifted_bracket_pure_time_derivative(self):
        w = self.h_field(tp_cos(), 1)
        out = shifted_bracket(w, GradedField.zero(1, 8), 8)
        # -d/dt (cos t h) = sin t h
        ys = np.linspace(-1, 1, 5)
        for y in ys:
            for t in (0.0, 1.0, 2.5):
                assert out.eval([y], t, 1.0)[0] == pytest.approx(
                    math.sin(t) * math.sin(y), abs=1e-13)

    def test_degree_bookkeeping(self):
        w = self.h_field(tp_cos(), 1)
        f = self.h_field(tp_sin(), 1)
        assert set(lie_bracket(w, f, 8).degrees()) <= {2}
        assert set(shifted_bracket(w, f, 8).degrees()) <= {1, 2}

    def test_dimension_mismatch_rejected(self):
        w = self.h_field(tp_cos(), 1)
        f2 = GradedField.build(2, 8, [unit_term(2, 0, Var(0), tp_sin(), 1)])
        with pytest.raises(DimensionMismatchError):
            lie_bracket(w, f2, 8)


class TestExpOperator:
    def test_zero_generator_is_identity(self):
        f = field_1d(unit_term(1, 0, sin_of(Var(0)), tp_sin(), 1))
        z = GradedField.zero(1, 8)
        assert exp_operator_apply(z, "identity", 8).is_zero
        out = exp_operator_apply(z, f, 8)
        ys = np.linspace(-1, 1, 5)
        for y in ys:
            assert out.eval([y], 0.7, 0.5)[0] == pytest.approx(
                f.eval([y], 0.7, 0.5)[0], abs=1e-14)

    def test_first_order_transform_term_is_generator(self):
        w = field_1d(unit_term(1, 0, sin_of(Var(0)), tp_cos(), 1))
        u = exp_operator_apply(w, "identity", 3)
        u1 = u.degree_part(1)
        for y in np.linspace(-1, 1, 5):
            assert u1.eval([y], 0.9, 1.0)[0] == pytest.approx(
                w.eval([y], 0.9, 1.0)[0], abs=1e-14)

    def test_series_terminates_by_grading(self):
        w = field_1d(unit_term(1, 0, sin_of(Var(0)), tp_cos(), 1))
        out = exp_operator_apply(w, "identity", 4)
        assert max(out.degrees()) <= 4

    def test_grading_sums_degrees(self):
        w = field_1d(unit_term(1, 0, Var(0), tp_cos(), 2))
        f = field_1d(unit_term(1, 0, mul(Var(0), Var(0)), tp_sin(), 3))
        b = lie_bracket(w, f, 8)
        assert set(b.degrees()) <= {5}


class TestGradedField:
    def test_truncation_is_explicit(self):
        t_hi = unit_term(1, 0, Var(0), tp_sin(), 9)
        f = GradedField.build(1, 8, [t_hi])
        assert f.is_zero

    def test_merge_equal_space_parts(self):
        a = unit_term(1, 0, Var(0), tp_sin(), 2)
        b = unit_term(1, 0, Var(0), tp_sin(), 2)
        f = GradedField.build(1, 8, [a, b])
        assert len(f.terms) == 1
        assert f.terms[0].time == TrigPoly.sine(1, 2.0)

    def test_harmonic_cap_enforced(self):
        spike = TrigPoly(0.0, tuple([0.0] * 40 + [1.0]), ())
        with pytest.raises(HarmonicOverflowError):
            GradedField.build(1, 8, [unit_term(1, 0, Var(0), spike, 1)])

    def test_time_factors_stay_trig_after_pipeline(self):
        w = field_1d(unit_term(1, 0, sin_of(Var(0)), tp_cos(), 1))
        f = field_1d(unit_term(1, 0, cos_of(Var(0)), tp_sin(), 1))
        out = exp_operator_apply(w, f, 6)
        assert all(isinstance(t.time, TrigPoly) for t in out.terms)

    @pytest.mark.parametrize("kind, extra", [
        ("basic1d", {}),
        ("planar", {}),
        ("filtered1d", {"mu": 0.09, "gamma": 3.8}),
        ("plant1d", {"omega": 0.5}),
    ])
    def test_batch_eval_equals_pointwise(self, kind, extra):
        dim2 = kind == "planar"
        h = parse_expr("sin(x1) + 0.5*x2^2" if dim2 else WORKED_H_TEXT, dim=2 if dim2 else 1)
        s = SchemeInstance(kind, h, a=0.3, eta=0.2, **extra)
        f = scheme_graded_field(s, 3)
        rng = np.random.default_rng(5)
        ys = rng.uniform(-0.9, 0.9, (23, f.dim))
        ts = rng.uniform(0.0, 2 * math.pi, 23)
        batch = f.eval(ys, ts, 0.4)
        assert batch.shape == (23, f.dim)
        assert np.array_equal(batch, np.stack([f.eval(y, t, 0.4) for y, t in zip(ys, ts)]))
        # a scalar time is shared by the whole batch
        assert np.array_equal(f.eval(ys, 1.1, 0.4),
                              np.stack([f.eval(y, 1.1, 0.4) for y in ys]))
        # with a base array the sum is added into it in place, term by term
        base = np.zeros_like(ys)
        assert f.eval(ys, ts, 0.4, base) is base
        assert np.array_equal(base, batch)
        base = ys.copy()
        f.eval(ys, ts, 0.4, base)
        assert np.allclose(base, ys + batch, rtol=1e-14, atol=1e-14)

    def test_degree_must_be_positive(self):
        with pytest.raises(Exception):
            SeparableTerm((Var(0),), tp_sin(), 0)

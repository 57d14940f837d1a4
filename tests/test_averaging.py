import gc
import math
import random
import warnings
import weakref

import numpy as np
import pytest

from esgain import averaging, fourieralg
from esgain.averaging import (CONVENTIONS, AveragingError, ResidualPreconditionError,
                              average, autonomy_residual, transform_points)
from esgain.fourieralg import GradedField, SeparableTerm, TrigPoly, unit_term
from esgain.schemes import SchemeInstance, reference_averaged, scheme_graded_field
from esgain.symexpr import (Const, Var, compile_expr, eval_expr, is_zero, mul, parse_expr,
                            sin_of, to_string)


def basic_scheme(worked_h, a=1.0, eta=1.0):
    return SchemeInstance("basic1d", worked_h, a=a, eta=eta, m=1, n=1)


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
        s = SchemeInstance("planar", h, a=0.2, eta=0.25)
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
        s = SchemeInstance("planar", h, a=0.2, eta=0.25)
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
                           eta=0.25)
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

    def test_dim1_sups_keep_their_bits(self, worked_h):
        # a 1x1 system's adjugate over its determinant is rhs / J, the bits
        # a LAPACK solve gives
        f = scheme_graded_field(basic_scheme(worked_h, a=0.2, eta=0.8), 5)
        res = average(f, 4, convention="w-zero-mean")
        rep = autonomy_residual(f, res, (0.2, 0.1, 0.05), samples=40)
        assert rep.sup_residuals == (0.048396886338257866, 0.0012068988627661715,
                                     3.4754105391416636e-05)

    @pytest.mark.parametrize("eps", [[0.1, -0.1], [0.1, 0.0], [0.1, math.nan],
                                     [math.inf, 0.1]])
    def test_non_positive_or_non_finite_eps_refused(self, worked_h, eps, monkeypatch):
        f = scheme_graded_field(basic_scheme(worked_h, a=0.2, eta=0.8), 3)
        res = average(f, 2)

        def evaluated(*args):
            raise AssertionError("evaluated before the eps were checked")
        monkeypatch.setattr(GradedField, "eval", evaluated)
        with pytest.raises(AveragingError, match="finite and positive"):
            autonomy_residual(f, res, eps, samples=10)

    def test_one_distinct_eps_gives_nan_without_warning(self, worked_h):
        f = scheme_graded_field(basic_scheme(worked_h, a=0.2, eta=0.8), 3)
        res = average(f, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = autonomy_residual(f, res, [0.1, 0.1], samples=10)
        assert rep.sup_residuals[0] == rep.sup_residuals[1] > 0.0
        assert math.isnan(rep.exponent)

    @pytest.mark.parametrize("kind", ["basic1d", "planar", "filtered1d"])
    def test_calls_no_lapack(self, worked_h, kind, monkeypatch):
        # dims 1, 2 and 3: Cramer's rule and a closed-form slope, no LAPACK
        def lapack(*args, **kwargs):
            raise AssertionError("LAPACK called")
        for name in dir(np.linalg):
            if callable(getattr(np.linalg, name)) and not name.startswith("_") \
                    and not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, lapack)
        monkeypatch.setattr(np, "polyfit", lapack)
        if kind == "basic1d":
            s, order = basic_scheme(worked_h, a=0.2, eta=0.8), 2
        elif kind == "planar":
            s, order = SchemeInstance("planar", parse_expr("sin(x1) + 0.5*x2^2", dim=2),
                                      a=0.2, eta=0.25), 3
        else:
            s, order = SchemeInstance("filtered1d", worked_h, a=0.2, eta=0.02, mu=0.05,
                                      gamma=1.0), 2
        f = scheme_graded_field(s, order + 1)
        res = average(f, order, convention="w-zero-mean")
        rep = autonomy_residual(f, res, [0.2, 0.1, 0.05], samples=10)
        assert res.dim == {"basic1d": 1, "planar": 2, "filtered1d": 3}[kind]
        assert abs(rep.exponent - (order + 1)) <= 0.5

    def test_singular_jacobian_is_refused(self):
        # x' = eps (-x / 2) cos t averages to g = 0 with u_1 = -(y / 2) sin t, so
        # dU/dy = 1 - (eps / 2) sin t vanishes at eps = 2, t = pi / 2
        f = GradedField.build(1, 1, [SeparableTerm((mul(Const(-0.5), Var(0)),),
                                                   TrigPoly.cosine(1), 1)])
        res = average(f, 1, convention="w-zero-mean")
        with pytest.raises(ResidualPreconditionError, match="eps=2.0"):
            autonomy_residual(f, res, [2.0], samples=[([0.5], 0.5 * math.pi)])


# ---------------------------------------------------------------------------
# the engine against its chained-add reference

def reference_part(self, d, first):
    """`LieTriangle.part` as a chain of d - 1 `add`s, each of which merges
    and sorts the running sum again."""
    fact = 1.0
    for k in range(1, d):
        if d not in self.rows[k]:
            self.rows[k][d] = self.apply(self.rows[k - 1], d)
        fact *= k + 1
        first = first.add(self.rows[k][d].scale(1.0 / fact))
    return first


def reference_map_time(self, fn):
    return GradedField.build(self.dim, self.max_order,
                             [SeparableTerm(t.space, fn(t.time), t.eps_degree)
                              for t in self.terms])


def reference_degree_part(self, degree):
    return GradedField.build(self.dim, self.max_order,
                             [t for t in self.terms if t.eps_degree == degree])


def reference_degree_parts(f, trunc_order):
    return {d: GradedField.build(f.dim, trunc_order, [t for t in f.terms if t.eps_degree == d])
            for d in range(1, trunc_order + 1)}


def unmemoized(self, ws, vs, c):
    return self._component(ws, vs, c)


def engine_case(kind, order):
    """A scheme field of `kind`, expanded through eps degree `order`."""
    if kind == "planar":
        s = SchemeInstance("planar", parse_expr("sin(x1) + 0.5*x2^2", dim=2), a=0.2,
                           eta=0.25)
    elif kind == "filtered1d":
        s = SchemeInstance("filtered1d", parse_expr("-cos(x) + 0.16666666666666666*x^3"),
                           a=0.3, eta=0.21, mu=0.09, gamma=3.8)
    else:
        s = SchemeInstance("basic1d", parse_expr("-cos(x) + 0.16666666666666666*x^3"),
                           a=0.3, eta=0.21)
    return scheme_graded_field(s, order)


def engine_output(res, f):
    """Everything an averaging result prints and evaluates to."""
    rng = np.random.default_rng(7)
    ys = rng.uniform(-0.9, 0.9, (64, f.dim))
    ts = rng.uniform(0.0, 2.0 * math.pi, 64)
    text = ([to_string(e) for comps in res.g for e in comps], res.w.debug_lines(),
            [ui.debug_lines() for ui in res.u])
    values = [part.eval(ys, ts, 0.3) for part in (res.g_field, res.w, *res.u)]
    return text, values


ENGINE_CASES = ([("basic1d", n, c) for n in (4, 5, 6, 7) for c in CONVENTIONS]
                + [("planar", 4, "u-zero-mean"), ("planar", 5, "u-zero-mean"),
                   ("filtered1d", 3, "u-zero-mean"), ("filtered1d", 4, "u-zero-mean")])


class TestSingleBuildEngine:
    """The component memo, one build per triangle part, and the merge-free
    `map_time` and degree parts give the output of the engine that chained
    `add`s, built every derived field in full and took each component anew."""

    @pytest.mark.parametrize("kind,order,convention", ENGINE_CASES)
    def test_equals_chained_add_reference(self, kind, order, convention, monkeypatch):
        f = engine_case(kind, order)
        text, values = engine_output(average(f, order, convention), f)
        with monkeypatch.context() as m:
            m.setattr(fourieralg.LieTriangle, "part", reference_part)
            m.setattr(fourieralg.LieTriangle, "component", unmemoized)
            m.setattr(GradedField, "map_time", reference_map_time)
            m.setattr(GradedField, "degree_part", reference_degree_part)
            m.setattr(averaging, "degree_parts", reference_degree_parts)
            ref_text, ref_values = engine_output(average(f, order, convention), f)
        assert text == ref_text
        for got, want in zip(values, ref_values):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind,order,g_calls,g_distinct,calls,distinct",
                             [("basic1d", 6, 517, 279, 848, 549),
                              ("planar", 4, 1256, 648, 2008, 1216)])
    def test_each_distinct_component_is_taken_once(self, kind, order, g_calls, g_distinct,
                                                   calls, distinct, monkeypatch):
        f = engine_case(kind, order)
        asked, taken = [], []
        seen = {}  # (triangle, structural key) -> (printed key, the Expr handed out)
        memoized = fourieralg.LieTriangle.component

        def recording(self, ws, vs, c):
            expr = memoized(self, ws, vs, c)
            printed = (tuple(map(to_string, ws)), tuple(map(to_string, vs)), c)
            first = seen.setdefault((self, ws, vs, c), (printed, expr))
            # structural == takes Const(-0.0) for Const(0.0): a hit must print
            # as the key a miss stored, and hand out that miss's Expr
            assert first[0] == printed
            assert first[1] is expr
            asked.append(1)
            return expr

        def counted(fn):
            return lambda ws, vs, c: taken.append(1) or fn(ws, vs, c)

        for name in ("bracket_component", "derivative_component"):
            monkeypatch.setattr(averaging, name, counted(getattr(averaging, name)))
        monkeypatch.setattr(fourieralg.LieTriangle, "component", recording)
        res = average(f, order)
        assert len(asked) == g_calls
        assert len(taken) == len(seen) == g_distinct
        res.u  # the transform adds its components to the same memos
        assert len(asked) == calls
        assert len(taken) == len(seen) == distinct


class TestTransformOnFirstRead:
    """`average` leaves the transform to the first read of w or u."""

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_read_order_does_not_matter(self, convention):
        f = engine_case("basic1d", 5)
        w_first = average(f, 5, convention)
        w_first.w
        u_first = average(f, 5, convention)
        u_first.u
        text, values = engine_output(w_first, f)
        u_text, u_values = engine_output(u_first, f)
        assert text == u_text
        for got, want in zip(values, u_values):
            assert np.array_equal(got, want)

    def test_g_alone_takes_no_derivative_component(self, monkeypatch):
        taken = []
        fn = averaging.derivative_component
        monkeypatch.setattr(averaging, "derivative_component",
                            lambda ws, vs, c: taken.append(1) or fn(ws, vs, c))
        res = average(engine_case("basic1d", 5), 5, "w-zero-mean")
        res.g_field
        assert taken == []
        res.w
        assert taken

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_term_cap_stops_at_the_same_degree(self, convention, monkeypatch):
        f = engine_case("basic1d", 5)
        counts = average(f, 5, convention).diagnostics["term_counts"]
        for cap in sorted(set(counts.values()))[:-1]:
            first_over = min(i for i, c in counts.items() if c > cap)
            monkeypatch.setattr(averaging, "_TERM_CAP", cap)
            with pytest.raises(averaging.TermExplosionError) as err:
                average(f, 5, convention)
            assert err.value.degree == first_over
        assert counts[5] > max(counts[i] for i in range(1, 5))  # the top degree is among them

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_first_read_drops_the_triangles(self, convention, monkeypatch):
        made = []
        init = fourieralg.LieTriangle.__init__

        def recording(self, *args):
            init(self, *args)
            made.append(weakref.ref(self))
        monkeypatch.setattr(fourieralg.LieTriangle, "__init__", recording)
        res = average(engine_case("basic1d", 4), 4, convention)
        gc.collect()
        assert len(made) == 2
        assert [ref() is None for ref in made] == [True, False]  # the u triangle waits
        res.u
        gc.collect()
        assert all(ref() is None for ref in made)
        assert res.build_transform is None

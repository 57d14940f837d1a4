"""Tests for the gain meta-optimization solvers and tuners."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esgain.averaging import average
from esgain.contraction import BoundsLedger
from esgain.metaopt import (_SUP_BLOCK_ELEMS, _SUP_TILE, InfeasibleError, MetaOptError,
                            MetaOptProblem, MetaOptSolution, RemainderTables, _bisect_up,
                            _constraints_for, consistency_report,
                            solve_monomial, solve_numeric,
                            solve_strategy3_closed_form, tune_filtered,
                            tune_frequency)
from esgain.schemes import SchemeInstance, reference_averaged, scheme_graded_field
from esgain.symexpr import Domain1D, eval_array, parse_expr


def synthetic_ledger(h0=1.0, h1=1.5, h2=1.0, h3=1.8, kappa=1.0, l2=1.0):
    return BoundsLedger(Domain1D(-1.0, 1.0), (h0, h1, h2, h3), kappa, 0.0,
                        {"L2h_hprime": l2})


class TestStrategy3ClosedForm:
    def test_worked_values(self, worked_ledger):
        sol = solve_strategy3_closed_form(worked_ledger, 0.01, 0.01)
        a_oracle = math.sqrt(8.0 * 0.01 * worked_ledger.kappa / worked_ledger.norm(3))
        assert sol.gains["a"] == pytest.approx(a_oracle, rel=1e-14)
        assert sol.gains["a"] == pytest.approx(0.2084, abs=5e-4)
        assert sol.gains["eta"] == pytest.approx(0.01 / worked_ledger.norm(0), rel=1e-14)
        assert sol.gains["eta"] == pytest.approx(0.01, abs=1e-4)
        assert sol.gains["p"] == pytest.approx(sol.gains["eta"] / sol.gains["a"] ** 3,
                                               rel=1e-14)
        assert sol.gains["p"] == pytest.approx(1.104, abs=2e-3)
        assert set(sol.active_constraints) == {"delta1_dominant", "delta2"}

    def test_quadrupling_delta1_doubles_a(self, worked_ledger):
        s1 = solve_strategy3_closed_form(worked_ledger, 0.01, 0.01)
        s4 = solve_strategy3_closed_form(worked_ledger, 0.04, 0.01)
        assert s4.gains["a"] == pytest.approx(2.0 * s1.gains["a"], rel=1e-14)
        assert s4.gains["eta"] == s1.gains["eta"]

    def test_unit_case(self):
        led = synthetic_ledger(h3=1.0, kappa=1.0)
        sol = solve_strategy3_closed_form(led, 1.0 / 8.0, 1.0)
        assert sol.gains["a"] == pytest.approx(1.0, rel=1e-14)
        assert sol.gains["eta"] == pytest.approx(1.0, rel=1e-14)

    def test_degenerate_norms_rejected(self):
        led = synthetic_ledger(h0=0.0)
        with pytest.raises(MetaOptError):
            solve_strategy3_closed_form(led, 0.01, 0.01)
        led = synthetic_ledger(h3=0.0)
        with pytest.raises(MetaOptError):
            solve_strategy3_closed_form(led, 0.01, 0.01)

    def test_output_feasible_for_its_constraints(self, worked_ledger):
        sol = solve_strategy3_closed_form(worked_ledger, 0.01, 0.01)
        a, eta = sol.gains["a"], sol.gains["eta"]
        assert a * a * worked_ledger.norm(3) / (8.0 * worked_ledger.kappa) \
            <= 0.01 * (1.0 + 1e-12)
        assert eta * worked_ledger.norm(0) <= 0.01 * (1.0 + 1e-12)


class TestMonomialClosedForm:
    def test_cubic_and_flat_constraints(self):
        k1, k2 = 0.5, 0.02
        a, eta = solve_monomial(1.0, 3.0, k1, 1.0, 0.0, k2)
        assert a == pytest.approx((k1 / k2) ** (1.0 / 3.0), rel=1e-13)
        assert eta == pytest.approx(k2, rel=1e-13)
        # both constraints are active at the optimum
        assert eta * a ** 3 == pytest.approx(k1, rel=1e-12)
        assert eta == pytest.approx(k2, rel=1e-12)

    def test_unit_constraint_levels(self):
        for exps in [(0.5, 2.0, 3.0, 1.0), (0.2, 1.0, 2.0, 0.5), (1.0, 3.0, 1.0, 0.0)]:
            p1, q1, p2, q2 = exps
            a, eta = solve_monomial(p1, q1, 1.0, p2, q2, 1.0)
            assert a == pytest.approx(1.0, rel=1e-12)
            assert eta == pytest.approx(1.0, rel=1e-12)

    def test_homogeneous_scaling_in_k1(self):
        p1, q1, p2, q2 = 1.0, 3.0, 2.0, 1.0
        den = q2 * p1 - q1 * p2
        a0, _ = solve_monomial(p1, q1, 1.0, p2, q2, 3.0)
        c = 2.7
        a1, _ = solve_monomial(p1, q1, c, p2, q2, 3.0)
        assert a1 == pytest.approx(a0 * c ** (-p2 / den), rel=1e-12)

    def test_invalid_exponent_ordering_rejected(self):
        with pytest.raises(MetaOptError):
            solve_monomial(2.0, 1.0, 1.0, 0.5, 1.0, 1.0)  # both ratios wrong side
        with pytest.raises(MetaOptError):
            solve_monomial(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)  # ratios equal 1


class TestSolveNumeric:
    def test_strategy3_equal_grading_worked_values(self, worked_ledger):
        prob = MetaOptProblem(worked_ledger, strategy=3, delta1=0.01, delta2=0.01)
        sol = solve_numeric(prob)
        assert sol.gains["eta"] == pytest.approx(0.01, abs=2e-4)
        assert sol.gains["a"] == pytest.approx(0.207, abs=2e-3)

    def test_strategy2_with_infinite_delta1_reduces_to_delta2(self, worked_ledger,
                                                              worked_h):
        prob = MetaOptProblem(worked_ledger, strategy=2, delta1=math.inf,
                              delta2=0.01)
        sol = solve_numeric(prob, h=worked_h)
        assert sol.active_constraints == ("delta2",)
        # delta2 = eta |h| + transform remainder sits exactly at its bound,
        # so the bare eta |h| part stays strictly below it
        assert sol.gains["eta"] * worked_ledger.norm(0) <= 0.01

    def test_gains_shrink_with_tolerances(self, worked_ledger):
        big = solve_numeric(MetaOptProblem(worked_ledger, strategy=3,
                                           delta1=0.01, delta2=0.01))
        small = solve_numeric(MetaOptProblem(worked_ledger, strategy=3,
                                             delta1=1e-3, delta2=1e-3))
        assert small.gains["a"] < big.gains["a"]
        assert small.gains["eta"] < big.gains["eta"]

    @pytest.mark.parametrize("kw", [
        {"grid_points": 0},
        {"grid_points": 1},
        {"gain_lo": 0.0},
        {"gain_lo": -1.0},
        {"gain_lo": 10.0},
        {"gain_lo": 1.0, "gain_hi": 0.5},
    ], ids=["grid_points_zero", "grid_points_one", "gain_lo_zero",
            "gain_lo_negative", "gain_lo_equals_hi", "gain_bounds_reversed"])
    def test_degenerate_grid_rejected(self, worked_ledger, kw):
        with pytest.raises(MetaOptError):
            MetaOptProblem(worked_ledger, strategy=3, delta1=0.01, delta2=0.01, **kw)

    @pytest.mark.parametrize("strategy,kw", [
        (1, {"delta": 0.05}),
        (2, {"delta1": 0.01, "delta2": 0.01}),
        (3, {"delta1": 0.01, "delta2": 0.01}),
        (4, {"delta": 0.05}),
    ])
    def test_active_constraint_certificate(self, worked_ledger, worked_h,
                                           strategy, kw):
        prob = MetaOptProblem(worked_ledger, strategy=strategy, **kw)
        sol = solve_numeric(prob, h=worked_h)
        assert sol.active_constraints  # at least one constraint binds
        tables = None
        if strategy in (1, 2, 4):
            from esgain.metaopt import RemainderTables
            tables = RemainderTables(worked_ledger, worked_h,
                                     safety=prob.remainder_safety)
        cons = _constraints_for(prob, worked_ledger, tables)
        by_name = {name: (fn, bound) for name, fn, bound in cons}
        a, eta = sol.gains["a"], sol.gains["eta"]
        eps = a ** (1.0 / prob.n)
        for name in sol.active_constraints:
            fn, bound = by_name[name]
            val = float(fn(np.asarray(a), np.asarray(eta)))
            assert val == pytest.approx(bound, rel=1e-9)

    def test_heavy_grading_matches_monomial_closed_form(self, worked_ledger):
        # strategy 3 with m > n has two pure monomial constraints:
        #   a^2 |h'''| / (8 kappa) <= delta1  and  eta |h| <= delta2
        d1, d2 = 0.01, 0.01
        prob = MetaOptProblem(worked_ledger, strategy=3, delta1=d1, delta2=d2,
                              m=3, n=1)
        sol = solve_numeric(prob)
        k1 = 8.0 * d1 * worked_ledger.kappa / worked_ledger.norm(3)
        k2 = d2 / worked_ledger.norm(0)
        a_cf, eta_cf = solve_monomial(0.0, 2.0, k1, 1.0, 0.0, k2)
        assert sol.gains["a"] == pytest.approx(a_cf, rel=1e-6)
        assert sol.gains["eta"] == pytest.approx(eta_cf, rel=1e-6)
        closed = solve_strategy3_closed_form(worked_ledger, d1, d2)
        assert sol.gains["a"] == pytest.approx(closed.gains["a"], rel=1e-6)

    def test_monotone_in_tolerances_on_random_ledgers(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            norms = tuple(rng.uniform(0.3, 3.0, size=4))
            led = BoundsLedger(Domain1D(-1.0, 1.0), norms,
                               kappa=rng.uniform(0.2, 2.0), x_star=0.0,
                               composites={"L2h_hprime": rng.uniform(0.1, 2.0)})
            d1, d2 = rng.uniform(0.002, 0.05, size=2)
            lo = solve_numeric(MetaOptProblem(led, strategy=3,
                                              delta1=d1, delta2=d2))
            hi = solve_numeric(MetaOptProblem(led, strategy=3,
                                              delta1=2.0 * d1, delta2=2.0 * d2))
            obj_lo = lo.gains["a"] * lo.gains["eta"]
            obj_hi = hi.gains["a"] * hi.gains["eta"]
            assert obj_hi >= obj_lo * (1.0 - 1e-9)

    def test_infeasible_reports_most_violated(self):
        led = synthetic_ledger()
        prob = MetaOptProblem(led, strategy=3, delta1=1e-12, delta2=1e-12,
                              gain_lo=1.0, gain_hi=2.0)
        with pytest.raises(InfeasibleError) as exc:
            solve_numeric(prob)
        assert exc.value.most_violated

    def test_problem_validation(self, worked_ledger):
        with pytest.raises(MetaOptError):
            MetaOptProblem(worked_ledger, strategy=5, delta=0.01)
        with pytest.raises(MetaOptError):
            MetaOptProblem(worked_ledger, strategy=1)  # missing total tolerance
        with pytest.raises(MetaOptError):
            MetaOptProblem(worked_ledger, strategy=2, delta1=0.01)  # missing delta2


def bisect_up_reference(feasible, lo, hi_cap):
    """`_bisect_up` as first written: always 200 halvings."""
    hi = lo
    step = lo * 0.5
    while hi + step <= hi_cap and feasible(hi + step):
        hi += step
        step *= 2.0
    top = min(hi + step, hi_cap)
    if feasible(top):
        return top
    lo_b, hi_b = hi, top
    for _ in range(200):
        mid = 0.5 * (lo_b + hi_b)
        if feasible(mid):
            lo_b = mid
        else:
            hi_b = mid
    return lo_b


class TestBisectUp:
    @settings(max_examples=400, derandomize=True)
    @given(lo=st.floats(1e-6, 1e3), cap_factor=st.floats(1.0, 1e6),
           frac=st.floats(0.0, 1.2), strict=st.booleans())
    def test_early_exit_matches_full_halving(self, lo, cap_factor, frac, strict):
        hi_cap = lo * cap_factor
        t = lo + frac * (hi_cap - lo)
        pred = (lambda x: x < t) if strict else (lambda x: x <= t)
        calls = []

        def feasible(x):
            calls.append(x)
            return pred(x)

        got = _bisect_up(feasible, lo, hi_cap)
        assert got == bisect_up_reference(pred, lo, hi_cap)
        assert len(calls) < 200  # stops once the bracket is two adjacent floats

    @pytest.mark.parametrize("lo,hi_cap", [(1e-4, 10.0), (0.3, 0.30000000000001),
                                           (2.0, 1e6)])
    @pytest.mark.parametrize("where", ["lo", "lo+1ulp", "mid", "cap-1ulp", "cap", "beyond"])
    def test_threshold_at_adjacent_floats_and_cap(self, lo, hi_cap, where):
        t = {"lo": lo, "lo+1ulp": np.nextafter(lo, np.inf),
             "mid": 0.5 * (lo + hi_cap), "cap-1ulp": np.nextafter(hi_cap, -np.inf),
             "cap": hi_cap, "beyond": 2.0 * hi_cap}[where]
        t = float(t)
        got = _bisect_up(lambda x: x <= t, lo, hi_cap)
        assert got == bisect_up_reference(lambda x: x <= t, lo, hi_cap)
        assert got == min(t, hi_cap)  # the largest feasible float


def sup_by_column(coeffs, p):
    """sup over the samples for each entry of p on its own, without
    deduplication: each p is evaluated as a whole tile of copies of itself."""
    out = np.empty(p.size)
    for j, v in enumerate(p.ravel()):
        powers = np.stack([np.full(_SUP_TILE, v) ** k for k in range(5)])
        out[j] = np.max(np.abs(np.tensordot(coeffs, powers, axes=(1, 0))[:, 0]))
    return out.reshape(p.shape)


class TestRemainderTablesMemory:
    """`RemainderTables._sup` on the solver's 200 x 200 gain grid: block-wise
    evaluation of the distinct p keeps memory bounded and changes no bit of
    the result."""

    @pytest.fixture(scope="class")
    def tables(self, worked_ledger, worked_h):
        return RemainderTables(worked_ledger, worked_h)

    @pytest.mark.parametrize("name", ["_g_coeffs", "_u_coeffs"])
    def test_blocked_sup_equals_one_shot(self, tables, name):
        coeffs = getattr(tables, name)
        grid = np.geomspace(1e-4, 10.0, 200)
        p = grid[None, :] / grid[:, None]   # e / a over the solver's grid
        assert p.size > _SUP_BLOCK_ELEMS // coeffs.shape[0]  # more than one block
        powers = np.stack([p ** k for k in range(5)])
        vals = np.tensordot(coeffs, powers, axes=(1, 0))  # 1 GB for the u table
        ref = np.max(np.abs(vals, out=vals), axis=0)
        del vals
        assert np.array_equal(tables._sup(coeffs, p), ref)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), blocks=st.sampled_from([0, 1, 2]),
           offset=st.integers(-200, 200), extra=st.integers(1, 300),
           rows=st.sampled_from([1, 2, 3]))
    def test_deduplicated_sup_equals_sup_by_column(self, tables, seed, blocks,
                                                    offset, extra, rows):
        # distinct counts cluster around 0, 1 and 2 blocks of the u table;
        # every distinct p repeats at least once when extra >= its count
        coeffs = tables._u_coeffs
        block = _SUP_BLOCK_ELEMS // coeffs.shape[0]
        n_distinct = max(1, blocks * block + offset)
        rng = np.random.default_rng(seed)
        pool = np.unique(np.exp(rng.uniform(-3.0, 3.0, n_distinct)))  # p near 1
        size = -(-(pool.size + extra) // rows) * rows
        p = np.concatenate([pool, rng.choice(pool, size - pool.size)])
        p = rng.permutation(p).reshape((rows, -1) if rows > 1 else (-1,))
        got = tables._sup(coeffs, p)
        assert got.shape == p.shape
        assert np.array_equal(got, sup_by_column(coeffs, p))

    def test_scalar_p_is_zero_dimensional(self, tables):
        for name in ("_g_coeffs", "_u_coeffs"):
            coeffs = getattr(tables, name)
            got = tables._sup(coeffs, 0.7)
            assert np.ndim(got) == 0
            powers = np.array([0.7 ** k for k in range(5)])
            assert got == np.max(np.abs(np.tensordot(coeffs, powers, axes=(1, 0))))

    def test_strategy1_solve_peak_below_64mb(self, worked_ledger, worked_h):
        prob = MetaOptProblem(worked_ledger, strategy=1, delta=0.05, grid_points=200)
        tracemalloc.start()
        try:
            solve_numeric(prob, h=worked_h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestFrequencyTuner:
    def test_worked_values(self, worked_ledger):
        tun = tune_frequency(worked_ledger, a=0.209, eta=0.01)
        want = 0.209 / (2.0 * (0.01 * worked_ledger.norm(0) + 0.209))
        assert tun.omega == pytest.approx(want, rel=1e-14)
        assert tun.omega == pytest.approx(0.477, abs=1e-3)
        assert tun.diagnostics["literal_stationary_omega"] == pytest.approx(
            want / 2.0, rel=1e-14)
        assert tun.diagnostics["literal_stationary_omega"] == pytest.approx(
            0.239, abs=1e-3)

    def test_small_eta_limit_is_one_half(self, worked_ledger):
        tun = tune_frequency(worked_ledger, a=1.0, eta=1e-10)
        assert tun.omega == pytest.approx(0.5, abs=1e-9)

    def test_positive_gains_required(self, worked_ledger):
        with pytest.raises(MetaOptError):
            tune_frequency(worked_ledger, a=-1.0, eta=0.01)


class TestFilteredTuner:
    def test_feasible_and_constraints_hold(self, worked_ledger):
        sol = tune_filtered(worked_ledger, 0.01, 0.01)
        g = sol.gains
        assert all(g[k] > 0 for k in ("a", "eta", "mu", "gamma"))
        # re-evaluate the recorded constraints at the returned gains
        osc = g["eta"] * g["gamma"] * (g["a"] ** 2 / 4.0) * worked_ledger.norm(2)
        assert osc <= 0.01 * (1.0 + 1e-9)

    def test_eta_scales_linearly_with_delta2(self, worked_ledger):
        s1 = tune_filtered(worked_ledger, 0.01, 0.005)
        s2 = tune_filtered(worked_ledger, 0.01, 0.01)
        ratio = s2.gains["eta"] / s1.gains["eta"]
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_mu_lower_bound_positive(self, worked_ledger):
        sol = tune_filtered(worked_ledger, 0.01, 0.01)
        assert sol.gains["mu"] > 0.0


class TestConsistencyReport:
    def _averaged(self, worked_h, a, eta, m):
        s = SchemeInstance("basic1d", worked_h, a=a, eta=eta, m=m, n=1)
        return average(scheme_graded_field(s, 4), 4, convention="w-zero-mean")

    def test_equal_grading_flags_small_p(self, worked_ledger, worked_h):
        prob = MetaOptProblem(worked_ledger, strategy=3, delta1=0.01, delta2=0.01)
        sol = solve_numeric(prob)
        a, eta = sol.gains["a"], sol.gains["eta"]
        res = self._averaged(worked_h, a, eta, m=1)
        rep = consistency_report(sol, res, domain=worked_ledger.domain)
        assert rep.p_value == pytest.approx(eta / a, rel=1e-9)
        assert rep.p_value == pytest.approx(0.048, abs=5e-3)
        assert not rep.p_near_unity

    def test_heavy_grading_p_near_unity(self, worked_ledger, worked_h):
        sol = solve_strategy3_closed_form(worked_ledger, 0.01, 0.01)
        res = self._averaged(worked_h, sol.gains["a"], sol.gains["eta"], m=3)
        rep = consistency_report(sol, res)
        assert rep.p_value == pytest.approx(1.104, abs=2e-3)
        assert rep.p_near_unity

    def test_neglected_terms_small_for_tuned_gains(self, worked_ledger, worked_h):
        sol = solve_strategy3_closed_form(worked_ledger, 0.01, 0.01)
        res = self._averaged(worked_h, sol.gains["a"], sol.gains["eta"], m=3)
        rep = consistency_report(sol, res)
        assert rep.neglected_ratio < 0.1
        assert rep.neglected_terms_small

    def test_one_dimensional_scan_is_the_401_point_grid(self, worked_ledger, worked_h):
        sol = solve_strategy3_closed_form(worked_ledger, 0.01, 0.01)
        res = self._averaged(worked_h, sol.gains["a"], sol.gains["eta"], m=3)
        ys = np.linspace(-1.0, 1.0, 401)[:, None]
        want = [float(np.max(np.abs(res.g_field.degree_part(i).eval(ys, 0.0, sol.gains["a"]))))
                for i in range(1, res.order + 1)]
        assert consistency_report(sol, res).details["per_degree_sup"] == want

    def test_planar_result_scans_both_axes(self):
        # the degree-2 sup is the reference averaged field's on the same grid
        h = parse_expr("0.5*x1^2 + 0.5*x2^2 + 0.3*x1^3", dim=2)
        s = SchemeInstance("planar", h, a=0.2, eta=0.02)
        res = average(scheme_graded_field(s, 3), 3, convention="w-zero-mean")
        sol = MetaOptSolution(gains={"a": s.a, "eta": s.eta}, budget=None, active_constraints=(),
                              provenance={"domain": [[-1.0, 1.0], [-0.5, 0.5]]})
        rep = consistency_report(sol, res)
        xx, yy = np.meshgrid(np.linspace(-1.0, 1.0, 401), np.linspace(-0.5, 0.5, 401))
        ref = reference_averaged(s).degree_fields[2]
        sup2 = s.eps ** 2 * max(float(np.max(np.abs(eval_array(e, [xx, yy])))) for e in ref)
        sups = rep.details["per_degree_sup"]
        assert sups[1] == pytest.approx(sup2, rel=1e-9)
        assert sups[0] == 0.0 and rep.details["dominant_degree"] == 2
        assert rep.p_value == pytest.approx(0.1, rel=1e-12)

    def test_planar_result_needs_a_domain_over_both_axes(self):
        h = parse_expr("0.5*x1^2 + 0.5*x2^2", dim=2)
        s = SchemeInstance("planar", h, a=0.2, eta=0.02)
        res = average(scheme_graded_field(s, 2), 2, convention="w-zero-mean")
        sol = MetaOptSolution(gains={"a": s.a, "eta": s.eta}, budget=None,
                              active_constraints=(), provenance={"domain": [[-1.0, 1.0]]})
        with pytest.raises(MetaOptError, match="domain"):
            consistency_report(sol, res)

    def test_three_state_result_is_refused_before_any_grid(self, worked_h):
        # a 401-point grid per axis would hold 401^3 points for filtered1d
        s = SchemeInstance("filtered1d", worked_h, a=0.2, eta=0.02, mu=0.05, gamma=1.0)
        res = average(scheme_graded_field(s, 2), 2, convention="w-zero-mean")
        sol = MetaOptSolution(gains={"a": s.a, "eta": s.eta}, budget=None, active_constraints=(),
                              provenance={"domain": [[-1.0, 1.0]] * 3})
        with pytest.raises(MetaOptError, match="1 or 2 axes"):
            consistency_report(sol, res)

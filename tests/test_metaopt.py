"""Tests for the gain meta-optimization solvers and tuners."""
import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from esgain import metaopt, symexpr
from esgain.averaging import average
from esgain.contraction import BoundsLedger, build_ledger, plant_coupling_bound
from esgain.metaopt import (InfeasibleError, MetaOptError, MetaOptProblem,
                            RemainderTables, _constraints_for,
                            consistency_report, solve_monomial,
                            solve_numeric, solve_strategy3_closed_form,
                            tune_filtered, tune_frequency)
from esgain.schemes import SchemeInstance, dithered_field, scheme_graded_field
from esgain.sim import integrate
from esgain.symexpr import Domain1D, parse_expr


def synthetic_ledger(h0=1.0, h1=1.5, h2=1.0, h3=1.8, kappa=1.0, l2=1.0,
                     h=parse_expr("0.5*x^2")):
    """A ledger of made-up norms; its objective `h` is only read by the
    remainder tables of strategies 1, 2 and 4."""
    return BoundsLedger(h, Domain1D(-1.0, 1.0), (h0, h1, h2, h3), kappa, 0.0, l2)


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
        assert (sol.provenance["m"], sol.provenance["n"]) == (3, 1)

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


WORKED_CALLS = [
    (1, {"delta": 0.05}),
    (2, {"delta1": 0.01, "delta2": 0.01}),
    (3, {"delta1": 0.01, "delta2": 0.01}),
    (4, {"delta": 0.05}),
]


class TestSolveNumeric:
    def test_strategy3_equal_grading_worked_values(self, worked_ledger):
        prob = MetaOptProblem(worked_ledger, strategy=3, delta1=0.01, delta2=0.01)
        sol = solve_numeric(prob)
        assert sol.gains["eta"] == pytest.approx(0.01, abs=2e-4)
        assert sol.gains["a"] == pytest.approx(0.207, abs=2e-3)

    def test_strategy2_with_infinite_delta1_reduces_to_delta2(self, worked_ledger):
        prob = MetaOptProblem(worked_ledger, strategy=2, delta1=math.inf,
                              delta2=0.01)
        sol = solve_numeric(prob)
        # a eta grows with p until delta2 holds a to the domain half-width,
        # so the optimum sits where both bind
        assert sol.active_constraints == ("delta2", "a_in_domain")
        assert sol.gains["a"] == pytest.approx(1.0 - worked_ledger.x_star, rel=1e-12)
        # delta2 = eta |h| + transform remainder sits exactly at its bound,
        # so the bare eta |h| part stays strictly below it
        assert sol.gains["eta"] * worked_ledger.norm(0) <= 0.01

    @pytest.mark.parametrize("kw", [{"strategy": 1, "delta": 1.0},
                                    {"strategy": 2, "delta1": math.inf, "delta2": 0.01},
                                    {"strategy": 4, "delta": 5.0}])
    def test_dither_amplitude_stays_on_the_ledger_domain(self, worked_ledger, kw):
        # the dither probes x* +- a, and the norms were scanned on [-1, 1]
        x_star = worked_ledger.x_star
        half_width = min(x_star + 1.0, 1.0 - x_star)
        sol = solve_numeric(MetaOptProblem(worked_ledger, **kw))
        assert sol.gains["a"] <= half_width
        assert sol.provenance["constraints"]["a_in_domain"] == f"bound {half_width}"

    @pytest.mark.parametrize("kw", [{"strategy": 1, "delta": 0.05},
                                    {"strategy": 2, "delta1": 0.01, "delta2": 0.01},
                                    {"strategy": 4, "delta": 0.5}], ids=["s1", "s2", "s4"])
    def test_x_star_off_the_domain_interior_names_a_in_domain(self, worked_h, kw):
        # no a > 0 keeps x* +- a on [-1, 1]; the solver must say so before
        # it divides by the zero half-width. An x* past an end has no
        # ledger (TestBuildLedger)
        led = build_ledger(worked_h, Domain1D(-1.0, 1.0), x_star=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleError) as exc:
                solve_numeric(MetaOptProblem(led, **kw))
        assert exc.value.most_violated == "a_in_domain"

    @pytest.mark.parametrize("norms,d1,d2", [({}, math.inf, 0.01), ({}, math.inf, math.inf),
                                             ({"h3": 0.0}, 0.01, 0.01)],
                             ids=["delta1_inf", "both_inf", "h3_zero"])
    def test_strategy3_unbounded_amplitude_sits_on_the_box(self, norms, d1, d2):
        # nothing in the truncated model caps a, so the box does, and eta
        # takes what delta2 and the box leave
        led = synthetic_ledger(**norms)
        sol = solve_numeric(MetaOptProblem(led, strategy=3, delta1=d1, delta2=d2))
        assert sol.gains["a"] == metaopt._GAIN_RANGE[1]
        assert sol.gains["eta"] == min(d2 / led.norm(0), metaopt._GAIN_RANGE[1])

    def test_gains_shrink_with_tolerances(self, worked_ledger):
        big = solve_numeric(MetaOptProblem(worked_ledger, strategy=3,
                                           delta1=0.01, delta2=0.01))
        small = solve_numeric(MetaOptProblem(worked_ledger, strategy=3,
                                             delta1=1e-3, delta2=1e-3))
        assert small.gains["a"] < big.gains["a"]
        assert small.gains["eta"] < big.gains["eta"]

    @pytest.mark.parametrize("strategy,kw", WORKED_CALLS)
    def test_active_constraint_certificate(self, worked_ledger, worked_h,
                                           strategy, kw):
        prob = MetaOptProblem(worked_ledger, strategy=strategy, **kw)
        sol = solve_numeric(prob)
        assert sol.active_constraints  # at least one constraint binds
        tables = None
        if strategy in (1, 2, 4):
            tables = RemainderTables(worked_ledger.domain, worked_h)
        cons = _constraints_for(prob, worked_ledger, tables)
        by_name = {name: (fn, bound) for name, fn, bound in cons}
        a, eta = sol.gains["a"], sol.gains["eta"]
        for name in sol.active_constraints:
            fn, bound = by_name[name]
            val = float(fn(np.asarray(a), np.asarray(eta)))
            assert val == pytest.approx(bound, rel=1e-9)

    @pytest.mark.parametrize("strategy,kw", WORKED_CALLS)
    def test_grid_reports_equal_grading(self, worked_ledger, strategy, kw):
        # every strategy of solve_numeric solves the m = n = 1 model, so p = eta / a,
        # and provenance names that grading for the consistency report
        sol = solve_numeric(MetaOptProblem(worked_ledger, strategy=strategy, **kw))
        assert (sol.provenance["m"], sol.provenance["n"]) == (1, 1)
        assert sol.gains["p"] == sol.gains["eta"] / sol.gains["a"]

    def test_strategy3_builds_no_remainder_tables(self, worked_ledger, monkeypatch):
        def no_tables(*args, **kwargs):
            raise AssertionError("RemainderTables built for strategy 3")

        monkeypatch.setattr("esgain.metaopt.RemainderTables", no_tables)
        metaopt._remainder_tables.cache_clear()  # no kept instance to reuse
        prob = MetaOptProblem(worked_ledger, strategy=3, delta1=0.01, delta2=0.01)
        assert solve_numeric(prob).active_constraints
        assert solve_strategy3_closed_form(worked_ledger, 0.01, 0.01).active_constraints

    def test_monotone_in_tolerances_on_random_ledgers(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            norms = tuple(rng.uniform(0.3, 3.0, size=4))
            led = BoundsLedger(parse_expr("0.5*x^2"), Domain1D(-1.0, 1.0), norms,
                               kappa=rng.uniform(0.2, 2.0), x_star=0.0,
                               l2_hprime=rng.uniform(0.1, 2.0))
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
        # at the box corner a = eta = 1e-4 delta1 is 3.5e-9 and delta2 1e-4
        prob = MetaOptProblem(led, strategy=3, delta1=1e-12, delta2=1e-12)
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


# The three audit objectives on [-1, 1] with x* = 0, and the solver calls
# frozen on them: solve_numeric's keyword arguments, or None for
# tune_filtered(ledger, 0.01, 0.01).
AUDIT_OBJECTIVES = (
    "-cos(x) + 0.16666666666666666*x^3",
    "0.5*x^2 + 0.1*x^3 + 0.25*x^4",
    "exp(x) - x - 1",
)
ORACLE_CALLS = {
    "s1": {"strategy": 1, "delta": 0.02},
    "s2": {"strategy": 2, "delta1": 0.01, "delta2": 0.01},
    "s2_inf": {"strategy": 2, "delta1": math.inf, "delta2": 0.01},
    "s4": {"strategy": 4, "delta": 0.5},
    "s3": {"strategy": 3, "delta1": 0.01, "delta2": 0.01},
    "s3_m3": None,  # solve_strategy3_closed_form(ledger, 0.01, 0.01)
    "filtered": None,
}
# (objective, call) -> (gains, budget (delta1, delta2),
# active constraints), recorded when each solver still had its own search;
# the s2_inf rows were recorded again once a_in_domain kept the dither
# amplitude on the ledger domain (at a = 10, 9.88 and 9.56 before). The
# budgets were recorded again once each reported the error model its
# constraints bound, and the s4 gains once strategy 4 bounded the whole
# model, eta |h| included (a = 0.285, 0.203 and 0.234 before). The s3_m3
# rows were recorded by the grid search of the dominant model that the
# closed form now answers; for the quartic the grid's eta was 1 ulp above
# the closed form's 0.011764705882352941, every other number agrees bit
# for bit. The s1, s2, s2_inf and s4 rows were recorded again once
# solve_numeric took the largest a at each p = eta / a and searched log p,
# which raised a eta on every row, and the remainder tables were fit by
# Cramer's rule instead of a LAPACK solve; the s3 rows, now the truncated
# model's closed form, kept every bit. The filtered rows were recorded
# again once tune_filtered solved its model instead of searching a grid
# (eta up 0.08 %, 4.9 % and 3.7 %) and its budget slots took the meaning
# of every other strategy's: delta1 the tube it bounds by tuning.delta1,
# delta2 the oscillation
SOLVER_ORACLE = {
    ('-cos(x) + 0.16666666666666666*x^3', 's1'): (
        {'a': 0.1175754931188706, 'eta': 0.012562155896772304, 'p': 0.10684331882046011},
        (0.006407618347064652, 0.013592381652935349),
        ('delta_total',)),
    ('-cos(x) + 0.16666666666666666*x^3', 's2'): (
        {'a': 0.14721540746004874, 'eta': 0.009082497297425806, 'p': 0.06169529028332588},
        (0.009999999999999998, 0.01),
        ('delta1', 'delta2')),
    ('-cos(x) + 0.16666666666666666*x^3', 's2_inf'): (
        {'a': 0.9999999999999994, 'eta': 0.00598002378940325, 'p': 0.005980023789403254},
        (0.46037760283876095, 0.01),
        ('delta2', 'a_in_domain')),
    ('-cos(x) + 0.16666666666666666*x^3', 's4'): (
        {'a': 0.2407089701841738, 'eta': 0.1840782381472282, 'p': 0.7647336034314978},
        (0.036013669694354856, 0.2232773601214713),
        ('delta_realtime',)),
    ('-cos(x) + 0.16666666666666666*x^3', 's3'): (
        {'a': 0.2079119665082619, 'eta': 0.01, 'p': 0.04809727967054087},
        (0.01, 0.01),
        ('delta1_truncated', 'delta2')),
    ('-cos(x) + 0.16666666666666666*x^3', 's3_m3'): (
        {'a': 0.20843111575497159, 'eta': 0.01, 'p': 1.1043642513125902},
        (0.010049752908535702, 0.01),
        ('delta1_dominant', 'delta2')),
    ('-cos(x) + 0.16666666666666666*x^3', 'filtered'): (
        {'a': 0.07163899783913087, 'eta': 0.0029073238259709634, 'mu': 0.0001, 'gamma': 30.0},
        (0.01, 0.00017236918972171397),
        ('estimate_tube',)),
    ('0.5*x^2 + 0.1*x^3 + 0.25*x^4', 's1'): (
        {'a': 0.06231617361101758, 'eta': 0.014582891316482922, 'p': 0.23401454985844394},
        (0.0063516040429391595, 0.01364839595706084),
        ('delta_total',)),
    ('0.5*x^2 + 0.1*x^3 + 0.25*x^4', 's2'): (
        {'a': 0.0779630951286967, 'eta': 0.010526896423691978, 'p': 0.1350240957765315},
        (0.009999999999999985, 0.009999999999999998),
        ('delta1', 'delta2')),
    ('0.5*x^2 + 0.1*x^3 + 0.25*x^4', 's2_inf'): (
        {'a': 0.9999999999999991, 'eta': 0.004987840606772302, 'p': 0.004987840606772306},
        (1.6499934662697735, 0.009999999999999998),
        ('delta2', 'a_in_domain')),
    ('0.5*x^2 + 0.1*x^3 + 0.25*x^4', 's4'): (
        {'a': 0.18502143543384345, 'eta': 0.20099090513732795, 'p': 1.0863114571889405},
        (0.04648540773125193, 0.26849315683490466),
        ('delta_realtime',)),
    ('0.5*x^2 + 0.1*x^3 + 0.25*x^4', 's3'): (
        {'a': 0.10999628235875132, 'eta': 0.011764705882352943, 'p': 0.10695548640437247},
        (0.009999999999999998, 0.01),
        ('delta1_truncated', 'delta2')),
    ('0.5*x^2 + 0.1*x^3 + 0.25*x^4', 's3_m3'): (
        {'a': 0.11009637651263607, 'eta': 0.011764705882352941, 'p': 8.815805442813284},
        (0.010018174740484428, 0.01),
        ('delta1_dominant', 'delta2')),
    ('0.5*x^2 + 0.1*x^3 + 0.25*x^4', 'filtered'): (
        {'a': 0.05101958926592251, 'eta': 0.0004393201094090299, 'mu': 0.0001, 'gamma': 30.0},
        (0.01, 3.945246054170632e-05),
        ('estimate_tube',)),
    ('exp(x) - x - 1', 's1'): (
        {'a': 0.09593266063648327, 'eta': 0.01696646787632643, 'p': 0.17685809779233902},
        (0.006237283113427621, 0.013762716886572378),
        ('delta_total',)),
    ('exp(x) - x - 1', 's2'): (
        {'a': 0.12135767515227532, 'eta': 0.012048477984096506, 'p': 0.09928072508787353},
        (0.009999999999999997, 0.01),
        ('delta1', 'delta2')),
    ('exp(x) - x - 1', 's2_inf'): (
        {'a': 1.0, 'eta': 0.006323809931108345, 'p': 0.006323809931108345},
        (0.6795681155606575, 0.01),
        ('delta2', 'a_in_domain')),
    ('exp(x) - x - 1', 's4'): (
        {'a': 0.21493907955782562, 'eta': 0.234422345995615, 'p': 1.0906455283881857},
        (0.028177652087785516, 0.2568832683543889),
        ('delta_realtime',)),
    ('exp(x) - x - 1', 's3'): (
        {'a': 0.17150409636037783, 'eta': 0.013922111911773331, 'p': 0.081176556171108},
        (0.009999999999999998, 0.01),
        ('delta1_truncated', 'delta2')),
    ('exp(x) - x - 1', 's3_m3'): (
        {'a': 0.17155277699214136, 'eta': 0.013922111911773331, 'p': 2.7574767723870965},
        (0.010005674489879225, 0.01),
        ('delta1_dominant', 'delta2')),
    ('exp(x) - x - 1', 'filtered'): (
        {'a': 0.06579643828327525, 'eta': 0.001211862987316481, 'mu': 0.0001, 'gamma': 30.0},
        (0.01, 0.00010695818791188062),
        ('estimate_tube',)),
}


@pytest.fixture(scope="module")
def audit_ledgers():
    out = {}
    for text in AUDIT_OBJECTIVES:
        h = parse_expr(text)
        out[text] = (h, build_ledger(h, Domain1D(-1.0, 1.0), x_star=0.0))
    return out


class TestSolverOracle:
    @pytest.mark.parametrize("text,call", list(SOLVER_ORACLE))
    def test_solution_equals_frozen(self, audit_ledgers, text, call):
        h, led = audit_ledgers[text]
        kw = ORACLE_CALLS[call]
        if call == "filtered":
            sol = tune_filtered(led, 0.01, 0.01)
        elif call == "s3_m3":
            sol = solve_strategy3_closed_form(led, 0.01, 0.01)
        else:
            sol = solve_numeric(MetaOptProblem(led, **kw))
        gains, budget, active = SOLVER_ORACLE[text, call]
        assert sol.active_constraints == active
        assert list(sol.gains) == list(gains)
        got = (tuple(sol.gains.values()), dataclasses.astuple(sol.budget))
        assert got == (tuple(gains.values()), budget)


class TestBudgetIsTheModel:
    """A solver's budget reports delta1 and delta2 of the error model its
    constraints bound, evaluated at its answer, and so stays within the
    tolerances the constraints name."""

    # each bounded constraint as the model's value at (a, delta1, delta2)
    MODELED = {
        "delta1": lambda a, d1, d2: d1,
        "delta1_truncated": lambda a, d1, d2: d1,
        "delta2": lambda a, d1, d2: d2,
        "delta_total": lambda a, d1, d2: d1 + d2,
        "delta_realtime": lambda a, d1, d2: a + d1 + d2,
    }
    CLOSED_FORM = (0.01, 0.01)  # delta1, delta2

    @pytest.mark.parametrize("call", [c for c in ORACLE_CALLS if ORACLE_CALLS[c]]
                             + ["closed_form"])
    @pytest.mark.parametrize("text", AUDIT_OBJECTIVES)
    def test_budget_is_the_model_at_the_answer(self, audit_ledgers, text, call):
        h, led = audit_ledgers[text]
        if call == "closed_form":
            sol = solve_strategy3_closed_form(led, *self.CLOSED_FORM)
            tables = None
        else:
            prob = MetaOptProblem(led, **ORACLE_CALLS[call])
            sol = solve_numeric(prob)
            # the tables the solve read: solve_numeric keeps them per objective
            tables = None if prob.strategy == 3 else metaopt._remainder_tables(led.domain, h)
        a, eta = sol.gains["a"], sol.gains["eta"]
        d1, d2 = sol.budget.delta1, sol.budget.delta2
        dc, osc = metaopt._error_terms(led, tables)
        assert (d1, d2) == (float(dc(a, eta)), float(osc(a, eta)))
        if call == "closed_form":
            # the dominant part of delta1 is bounded; delta1 exceeds it by
            # the eta^2 |L_h^2 h'| / (8 kappa) that the dominant model neglects
            tol1, tol2 = self.CLOSED_FORM
            dominant = a ** 2 * led.norm(3) / (8.0 * led.kappa)
            assert dominant <= tol1 and d2 <= tol2
            neglected = eta ** 2 * led.l2_hprime / (8.0 * led.kappa)
            assert d1 - dominant == pytest.approx(neglected, rel=1e-9)
            return
        for name, fn, bound in _constraints_for(prob, led, tables):
            value = float(fn(a, eta))
            if name in self.MODELED:
                assert value == self.MODELED[name](a, d1, d2) <= bound, name
            else:
                assert name == "a_in_domain" and value <= bound

    def test_strategy3_model_gives_a_lone_point_its_cell_bits(self, worked_ledger):
        # at this point libm pow(a, 2) and a * a differ in the last bit
        points = [(5.074747858459217, 0.4899309318846682)]
        rng = np.random.default_rng(3)
        points += zip(rng.uniform(1e-4, 10.0, 20000).tolist(),
                      rng.uniform(1e-4, 10.0, 20000).tolist())
        a, eta = (np.array(v) for v in zip(*points))
        for term in metaopt._error_terms(worked_ledger, None):
            cells = term(a, eta)
            assert [float(term(x, e)) for x, e in points] == cells.tolist()


def dense_scan_best(prob, ledger, tables, points=4001):
    """max p a^2 over `points` log-spaced p in solve_numeric's box, with a
    the largest amplitude in the box that _constraints_for admits at eta =
    p a, found by bisection in log a; no closed form is involved."""
    cons = _constraints_for(prob, ledger, tables)
    lo, hi = metaopt._GAIN_RANGE
    p = np.geomspace(lo / hi, hi / lo, points)

    def holds(a):
        return np.logical_and.reduce([fn(a, p * a) <= bound for _, fn, bound in cons])

    good, bad = np.maximum(lo, lo / p), np.minimum(hi, hi / p)
    feasible = holds(good)
    good = np.where(holds(bad), bad, good)
    for _ in range(60):
        mid = np.sqrt(good * bad)
        ok = holds(mid)
        good, bad = np.where(ok, mid, good), np.where(ok, bad, mid)
    return float(np.max(np.where(feasible, p * good * good, -np.inf)))


class TestSolverOptimality:
    """Strategies 1, 2 and 4 answer with the maximum of their own model: the
    largest amplitude at each p = eta / a in closed form, then a 1-D search
    of log p, never a 2-D grid."""

    CALLS = {"s1": {"strategy": 1, "delta": 0.02},
             "s2": {"strategy": 2, "delta1": 0.01, "delta2": 0.01},
             "s4": {"strategy": 4, "delta": 0.5}}

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("text", AUDIT_OBJECTIVES)
    def test_no_dense_scan_point_beats_the_answer(self, audit_ledgers, text, call):
        # the grid search stopped 0.0003 % to 1.04 % short of this scan
        h, led = audit_ledgers[text]
        prob = MetaOptProblem(led, **self.CALLS[call])
        sol = solve_numeric(prob)
        best = dense_scan_best(prob, led, metaopt._remainder_tables(led.domain, h))
        assert sol.gains["a"] * sol.gains["eta"] >= best

    def test_no_grid_search(self, worked_ledger, monkeypatch):
        # each searching solver evaluates its model (solve_numeric through
        # _largest_a, tune_filtered through _largest_eta) on one array of at
        # most _LOG_SAMPLES scan samples, then only on scalars
        sizes = []
        for name in ("_largest_a", "_largest_eta"):
            def counted(*args, fn=getattr(metaopt, name)):
                sizes.append(np.size(args[-1]))
                return fn(*args)
            monkeypatch.setattr(metaopt, name, counted)
        solves = [lambda s=s, kw=kw: solve_numeric(
                      MetaOptProblem(worked_ledger, strategy=s, **kw))
                  for s, kw in WORKED_CALLS if s != 3]
        for solve in solves + [lambda: tune_filtered(worked_ledger, 0.01, 0.01)]:
            sizes.clear()
            solve()
            assert 1 < sizes[0] <= metaopt._LOG_SAMPLES and set(sizes[1:]) == {1}

    def test_one_scan_then_scalar_probes(self, monkeypatch):
        # the objective of the benchmark's certify batch; a strategy-2 solve
        # on it made 60 calls of the grid's bisection polish, each a batch
        h = parse_expr("-1.0697*cos(x) - 0.1525*x^3 + 0.044*x^4 + 0.0512*(exp(x) - 1 - x)")
        led = build_ledger(h, Domain1D(-1.0, 1.0), x_star=0.0)
        sizes = []
        largest_a = metaopt._largest_a

        def counted(cons, ledger, tables, p):
            sizes.append(np.size(p))
            return largest_a(cons, ledger, tables, p)

        monkeypatch.setattr(metaopt, "_largest_a", counted)
        tol = 0.010934100939936115
        solve_numeric(MetaOptProblem(led, strategy=2, delta1=tol, delta2=tol))
        # the scan, the golden section's two brackets, its steps and its
        # midpoint, and the answer's p
        assert sizes == [metaopt._LOG_SAMPLES] + [1] * (symexpr._GOLDEN_ITERS + 4)


class TestLogSearch:
    """`_log_search`, the scan and golden-section refinement that
    solve_numeric and tune_filtered share, on hand-made value functions of
    x = log of the searched variable."""

    LO, HI = 1e-3, 1e2

    def samples(self):
        return np.linspace(math.log(self.LO), math.log(self.HI), metaopt._LOG_SAMPLES)

    @pytest.mark.parametrize("frac", [0.1, 0.37, 0.5, 0.9])
    def test_interior_peak_is_refined_past_the_samples(self, frac):
        x0 = math.log(self.LO) + frac * math.log(self.HI / self.LO)
        x = metaopt._log_search(lambda x: -(x - x0) ** 2, self.LO, self.HI)
        step = self.samples()[1] - self.samples()[0]
        assert abs(x - x0) < 1e-6 * step

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["increasing", "decreasing"])
    def test_monotone_value_returns_the_end_sample(self, sign):
        x = metaopt._log_search(lambda x: sign * x, self.LO, self.HI)
        assert x == math.log(self.HI if sign > 0 else self.LO)

    def test_every_sample_below_the_box_returns_none(self):
        assert metaopt._log_search(lambda x: np.full(np.shape(x), -np.inf),
                                   self.LO, self.HI) is None

    def test_refinement_worse_than_the_best_sample_keeps_the_sample(self):
        # a spike on one sample, flat elsewhere: the golden section finds
        # only the flat value, so the sample itself must come back
        spike = self.samples()[123]
        x = metaopt._log_search(lambda x: np.where(x == spike, 1.0, 0.0), self.LO, self.HI)
        assert x == spike

    def test_answer_stays_where_the_value_is_finite(self):
        # the value rises toward a peak past the right end of its finite
        # window, so the answer sits at that end, never beyond it
        w0, w1 = -2.0, 1.234
        value = lambda x: np.where((x >= w0) & (x <= w1), -(x - 3.0) ** 2, -np.inf)
        x = metaopt._log_search(value, self.LO, self.HI)
        best_sample = self.samples()[self.samples() <= w1][-1]
        assert best_sample <= x <= w1 and np.isfinite(value(x))


def observed_errors(h, ledger, a, eta, measured=200, steps_per_period=200):
    """(DC error of the period means, oscillation about them, periods run)
    of the basic1d loop at (a, eta) on the float march from x0 = 0.5, over
    its last `measured` periods, after twelve descent time constants
    2 / (a eta kappa) of settling."""
    period = 2.0 * math.pi
    periods = math.ceil(12.0 * 2.0 / (a * eta * ledger.kappa) / period) + measured
    traj = integrate(dithered_field(h, a, eta), [0.5], periods * period,
                     period / steps_per_period)
    tail = traj.states[1:, 0][-measured * steps_per_period:].reshape(measured, -1)
    means = tail.mean(axis=1)
    return (float(np.max(np.abs(means - ledger.x_star))),
            float(np.max(np.abs(tail - means[:, None]))), periods)


class TestObservedRatios:
    """The gains of strategies 1, 2 and 4 keep their claims in simulation:
    the DC error of the period means is at most the budget's delta1 and
    the oscillation about them at most its delta2."""

    @pytest.mark.parametrize("call", ["s1", "s2", "s4"])
    @pytest.mark.parametrize("text", AUDIT_OBJECTIVES)
    def test_simulated_errors_within_the_budget(self, audit_ledgers, text, call):
        h, led = audit_ledgers[text]
        sol = solve_numeric(MetaOptProblem(led, **ORACLE_CALLS[call]))
        dc, osc, _ = observed_errors(h, led, sol.gains["a"], sol.gains["eta"])
        assert dc <= sol.budget.delta1
        assert osc <= sol.budget.delta2


def sup_all_rows(coeffs, powers, p):
    """max over every row of |c0 p^k0 + c1 p^k1| for each entry of p, with
    no dominance front and no sharing of repeated p."""
    p = np.asarray(p, dtype=float)
    m0, m1 = (p.reshape(-1) ** k for k in powers)
    vals = coeffs[:, :1] * m0 + coeffs[:, 1:] * m1
    return np.max(np.abs(vals), axis=0).reshape(p.shape)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


# few distinct values, so tables draw duplicate rows and ties in each coefficient
COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]),
                  st.floats(-1e3, 1e3, allow_subnormal=False))
P_VALUE = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.0, 1e3))


class TestRemainderTablesMemory:
    """`RemainderTables._sup` answers from the dominance front of the signed
    rows: the same bits as the max over all rows, for every p >= 0, whether
    p comes alone or in an array, in memory far below an all-rows evaluation."""

    @pytest.fixture(scope="class")
    def tables(self, worked_ledger, worked_h):
        return RemainderTables(worked_ledger.domain, worked_h)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(rows=st.lists(st.tuples(COEFF, COEFF), min_size=1, max_size=24),
           zero=st.booleans(),
           powers=st.sampled_from([RemainderTables.G_POWERS, RemainderTables.U_POWERS]),
           p=st.sampled_from([(), (7,), (3, 4)]).flatmap(
               lambda shape: hnp.arrays(float, shape, elements=P_VALUE)))
    def test_deduplicated_sup_equals_sup_by_column(self, rows, zero, powers, p):
        coeffs = np.zeros((len(rows), 2)) if zero else np.array(rows)
        front = RemainderTables._front(coeffs)
        signed = {tuple(r) for r in np.concatenate([coeffs, -coeffs])}
        assert all(tuple(r) in signed for r in front)
        got = RemainderTables._sup(front, powers, p)
        assert got.shape == p.shape
        assert np.array_equal(got, sup_all_rows(coeffs, powers, p))
        assert not np.signbit(got).any()  # +0.0, as |.| gives, where the sup is zero
        if zero:
            assert not got.any()
        for idx, v in np.ndenumerate(p):
            assert bits(RemainderTables._sup(front, powers, float(v))) == bits(got[idx])

    def test_scalar_p_is_zero_dimensional(self, tables):
        grid = np.geomspace(1e-4, 10.0, 200)
        p = grid[None, :] / grid[:, None]   # e / a over a 200 x 200 gain grid
        for front, powers in ((tables._g_front, tables.G_POWERS),
                              (tables._u_front, tables.U_POWERS)):
            arr = tables._sup(front, powers, p)
            for i, j in ((0, 199), (57, 58), (120, 31), (199, 0)):
                got = tables._sup(front, powers, p[i, j])
                assert np.ndim(got) == 0
                assert bits(got) == bits(arr[i, j])

    @pytest.mark.parametrize("text", AUDIT_OBJECTIVES)
    def test_front_within_4_ulp_of_tensordot(self, text):
        # the all-rows BLAS product the fronts replaced; its FMA rounding
        # differs from plain IEEE arithmetic by at most 2 ulp on these tables
        h = parse_expr(text)
        tables = RemainderTables(Domain1D(-1.0, 1.0), h)
        grid = np.geomspace(1e-4, 10.0, 200)
        p = np.unique(grid[None, :] / grid[:, None])
        for front, coeffs, powers in ((tables._g_front, tables._g_coeffs, tables.G_POWERS),
                                      (tables._u_front, tables._u_coeffs, tables.U_POWERS)):
            blas = np.tensordot(coeffs, np.stack([p ** k for k in powers]), axes=(1, 0))
            ref = np.max(np.abs(blas), axis=0)
            got = tables._sup(front, powers, p)
            assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(ref))

    def test_strategy1_solve_peak_below_8mb(self, worked_ledger):
        prob = MetaOptProblem(worked_ledger, strategy=1, delta=0.05)
        tracemalloc.start()
        try:
            solve_numeric(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestRemainderTablesFit:
    """The two-run tables against the five-node Vandermonde fit they
    replaced: the degree-4 averaged term is odd in p and the degree-2
    transform term has no constant, so two nodes fix both polynomials."""

    CORPUS = (
        "-cos(x) + 0.16666666666666666*x^3",
        "-0.9*cos(x) + 0.12*x^3 + 0.04*x^4 + 0.1*(exp(x) - 1 - x)",
        "-1.1*cos(x) - 0.15*x^3 + 0.03*x^4 + 0.07*(exp(x) - 1 - x)",
    )

    @staticmethod
    def five_node_fit(h, y_samples=101, t_samples=32):
        nodes = np.array([0.4, 0.7, 1.0, 1.3, 1.6])
        ys = np.linspace(-1.0, 1.0, y_samples)
        ts = np.linspace(0.0, 2.0 * math.pi, t_samples, endpoint=False)
        mesh_y, mesh_t = np.meshgrid(ys, ts, indexing="ij")
        g_cols, u_cols = [], []
        for p in nodes:
            s = SchemeInstance("basic1d", h, a=1.0, eta=float(p), m=1, n=1)
            res = average(scheme_graded_field(s, 4), 4, convention="w-zero-mean")
            g_cols.append(res.g_field.degree_part(4).eval(ys[:, None], 0.0, 1.0)[:, 0])
            u_cols.append(res.u[1].eval(mesh_y.reshape(-1, 1), mesh_t.ravel(), 1.0)[:, 0])
        vander = np.vander(nodes, increasing=True)
        return (np.linalg.solve(vander, np.asarray(g_cols)).T,
                np.linalg.solve(vander, np.asarray(u_cols)).T)

    @pytest.mark.parametrize("text", CORPUS)
    def test_two_runs_match_five_node_fit(self, text):
        h = parse_expr(text)
        tables = RemainderTables(Domain1D(-1.0, 1.0), h)
        g_ref, u_ref = self.five_node_fit(h)
        for coeffs, powers, ref in ((tables._g_coeffs, tables.G_POWERS, g_ref),
                                    (tables._u_coeffs, tables.U_POWERS, u_ref)):
            dense = np.zeros_like(ref)
            dense[:, list(powers)] = coeffs
            assert np.max(np.abs(dense - ref)) <= 1e-11 * np.max(np.abs(ref))


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
        assert tun.diagnostics["coupling_bound_at_returned"] == plant_coupling_bound(
            0.209, 0.01, tun.omega, worked_ledger.norm(0), worked_ledger.norm(1))

    def test_small_eta_limit_is_one_half(self, worked_ledger):
        tun = tune_frequency(worked_ledger, a=1.0, eta=1e-10)
        assert tun.omega == pytest.approx(0.5, abs=1e-9)

    def test_positive_gains_required(self, worked_ledger):
        with pytest.raises(MetaOptError):
            tune_frequency(worked_ledger, a=-1.0, eta=0.01)


def filtered_dense_scan_best(tube, osc, d_tube, d_osc, points=801, mus=7):
    """max eta over a log mesh of (a, mu, gamma) in the filtered tuner's box,
    `points` values of a and gamma and `mus` of mu, with eta at each point
    the largest the two constraint functions admit in the eta box: both are
    affine in eta, so that is the least of each (bound - f(0)) / (f(1) - f(0))."""
    (a_lo, a_hi), (eta_lo, eta_hi), mu_box, (g_lo, g_hi) = metaopt._FILTERED_RANGES
    a = np.geomspace(a_lo, a_hi, points)[:, None]
    gamma = np.geomspace(g_lo, g_hi, points)[None, :]
    best = -np.inf
    for mu in np.geomspace(*mu_box, mus):  # one (a, gamma) plane at a time
        eta = np.full((points, points), eta_hi)
        with np.errstate(divide="ignore"):
            for fn, bound in ((tube, d_tube), (osc, d_osc)):
                zero = fn(a, 0.0, mu, gamma)
                eta = np.minimum(eta, (bound - zero) / (fn(a, 1.0, mu, gamma) - zero))
        best = max(best, float(np.max(np.where(eta >= eta_lo, eta, -np.inf))))
    return best


class TestFilteredTuner:
    # tolerance pairs (delta1 for the tube, delta2 for the oscillation); in
    # the last two both constraints bind, at (0.01, 5e-6) with gamma at its
    # cap and at (1.0, 1e-8) with a at its floor
    TOLERANCES = [(0.01, 0.01), (0.01, 0.005), (0.005, 0.01), (0.01, 5e-6), (1.0, 1e-8)]

    @pytest.mark.parametrize("tols", TOLERANCES, ids=lambda t: f"{t[0]}-{t[1]}")
    @pytest.mark.parametrize("text", AUDIT_OBJECTIVES)
    def test_no_dense_scan_point_beats_the_answer(self, audit_ledgers, text, tols):
        # the grid search stopped up to 4.9 % short of this scan
        h, led = audit_ledgers[text]
        with mock.patch.object(metaopt, "_budget", wraps=metaopt._budget) as spy:
            sol = tune_filtered(led, *tols)
        tube, osc = spy.call_args.args[0]
        g = sol.gains
        point = (g["a"], g["eta"], g["mu"], g["gamma"])
        assert tube(*point) <= tols[0] and osc(*point) <= tols[1]
        assert g["eta"] >= filtered_dense_scan_best(tube, osc, *tols)
        if tols[1] < 1e-5:
            assert sol.active_constraints == ("estimate_tube", "oscillation")

    def test_feasible_and_constraints_hold(self, worked_ledger):
        sol = tune_filtered(worked_ledger, 0.01, 0.01)
        g = sol.gains
        assert all(g[k] > 0 for k in ("a", "eta", "mu", "gamma"))
        # re-evaluate the recorded constraints at the returned gains
        osc = g["eta"] * g["gamma"] * (g["a"] ** 2 / 4.0) * worked_ledger.norm(2)
        assert osc <= 0.01 * (1.0 + 1e-9)

    def test_eta_scales_linearly_with_delta1(self, worked_ledger):
        # delta1 bounds the estimate tube, the constraint that binds
        s1 = tune_filtered(worked_ledger, 0.005, 0.01)
        s2 = tune_filtered(worked_ledger, 0.01, 0.01)
        ratio = s2.gains["eta"] / s1.gains["eta"]
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_mu_lower_bound_positive(self, worked_ledger):
        sol = tune_filtered(worked_ledger, 0.01, 0.01)
        assert sol.gains["mu"] > 0.0

    def test_infeasible_names_the_estimate_tube(self, worked_ledger):
        with pytest.raises(InfeasibleError) as exc:
            tune_filtered(worked_ledger, 1e-7, 1e-7)
        assert exc.value.most_violated == "estimate_tube"

    def test_infinite_bound_is_never_active(self, worked_ledger):
        sol = tune_filtered(worked_ledger, 0.01, math.inf)
        assert sol.active_constraints == ("estimate_tube",)

    def test_filtered_model_gives_a_lone_point_its_cell_bits(self, worked_ledger):
        # the budget reads the models at one float point, the scan at arrays;
        # the squares of a, gamma and mu must round the same in both
        with mock.patch.object(metaopt, "_budget", wraps=metaopt._budget) as spy:
            tune_filtered(worked_ledger, 0.01, 0.01)
        points = np.random.default_rng(5).uniform(1e-4, 30.0, (20000, 4))
        for term in spy.call_args.args[0]:
            cells = term(*points.T)
            assert [float(term(*p)) for p in points.tolist()] == cells.tolist()

    @pytest.mark.parametrize("text", AUDIT_OBJECTIVES)
    def test_eta_is_the_largest_float_that_holds(self, audit_ledgers, text):
        h, led = audit_ledgers[text]
        with mock.patch.object(metaopt, "_budget", wraps=metaopt._budget) as spy:
            sol = tune_filtered(led, 0.01, 0.01)
        tube, osc = spy.call_args.args[0]
        g = sol.gains

        def holds(eta):
            return (tube(g["a"], eta, g["mu"], g["gamma"]) <= 0.01
                    and osc(g["a"], eta, g["mu"], g["gamma"]) <= 0.01)

        assert holds(g["eta"]) and not holds(math.nextafter(g["eta"], math.inf))

    @pytest.mark.parametrize("text", AUDIT_OBJECTIVES)
    def test_eta_never_falls_as_a_tolerance_loosens(self, audit_ledgers, text):
        h, led = audit_ledgers[text]
        etas = {tols: tune_filtered(led, *tols).gains["eta"]
                for tols in [(0.01, 0.01), (0.02, 0.01), (0.01, 0.02), (0.01, 1e-5)]}
        assert etas[(0.02, 0.01)] >= etas[(0.01, 0.01)]
        assert etas[(0.01, 0.02)] >= etas[(0.01, 0.01)] >= etas[(0.01, 1e-5)]

    def test_largest_eta_is_the_least_of_the_box_and_each_cap(self):
        # c0 = 0.5 + 10 a eta caps eta at 0.05 / a, c1 = 20 a^2 eta at
        # 0.1 / a^2, and the box at _FILTERED_RANGES' top, 1.0
        cons = [("c0", lambda a, e, mu, g: 0.5 + 10.0 * a * e, 1.0),
                ("c1", lambda a, e, mu, g: 20.0 * a * a * e, 2.0)]
        a = np.array([0.01, 0.1, 0.25, 0.5, 1.0, 4.0])
        eta = metaopt._largest_eta(cons, a, 1e-4, 30.0)
        np.testing.assert_allclose(eta, [1.0, 0.5, 0.2, 0.1, 0.05, 0.00625], rtol=1e-15)
        assert [float(metaopt._largest_eta(cons, v, 1e-4, 30.0)) for v in a] == eta.tolist()

    def test_largest_eta_ignores_caps_that_cap_nothing(self):
        # a term that does not grow with eta, and an infinite bound, leave
        # the box's top as the largest eta
        cons = [("flat", lambda a, e, mu, g: 0.0 * e + a, 2.0),
                ("unbounded", lambda a, e, mu, g: e * a, math.inf)]
        eta = metaopt._largest_eta(cons, np.array([0.5, 1.0]), 1e-4, 30.0)
        assert eta.tolist() == [metaopt._FILTERED_RANGES[1][1]] * 2

    @pytest.mark.parametrize("text", AUDIT_OBJECTIVES)
    def test_range_edges_name_the_box_corner(self, text):
        # on the audit objectives the box, not a constraint, stops mu and gamma
        led = build_ledger(parse_expr(text), Domain1D(-1.0, 1.0), x_star=0.0)
        sol = tune_filtered(led, 0.01, 0.01)
        assert sol.provenance["range_edges"] == ["mu_lo", "gamma_hi"]
        assert sol.gains["mu"] == 1e-4 and sol.gains["gamma"] == 30.0

    def test_filtered_tune_peak_below_2mb(self, worked_ledger):
        # the grid search's 24^4 mesh at once allocated 10.45 MB; the solve
        # builds no mesh, only arrays of the scan's samples
        tracemalloc.start()
        try:
            tune_filtered(worked_ledger, 0.01, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestConsistencyReport:
    SOLVERS = {
        "s1": lambda led: solve_numeric(MetaOptProblem(led, strategy=1, delta=0.05)),
        "s2": lambda led: solve_numeric(MetaOptProblem(led, strategy=2, delta1=0.01,
                                                       delta2=0.01)),
        "s4": lambda led: solve_numeric(MetaOptProblem(led, strategy=4, delta=0.5)),
        "s3_numeric": lambda led: solve_numeric(MetaOptProblem(led, strategy=3, delta1=0.01,
                                                               delta2=0.01)),
        "s3_closed_form": lambda led: solve_strategy3_closed_form(led, 0.01, 0.01),
    }

    def test_equal_grading_flags_small_p(self, worked_ledger, worked_h):
        sol = self.SOLVERS["s3_numeric"](worked_ledger)
        rep = consistency_report(sol, worked_h)
        assert rep.p_value == pytest.approx(sol.gains["eta"] / sol.gains["a"], rel=1e-9)
        assert rep.p_value == pytest.approx(0.048, abs=5e-3)
        assert not rep.p_near_unity

    def test_heavy_grading_p_near_unity(self, worked_ledger, worked_h):
        sol = self.SOLVERS["s3_closed_form"](worked_ledger)
        rep = consistency_report(sol, worked_h)
        assert rep.p_value == pytest.approx(1.104, abs=2e-3)
        assert rep.p_near_unity

    def test_neglected_terms_small_for_tuned_gains(self, worked_ledger, worked_h):
        sol = self.SOLVERS["s3_closed_form"](worked_ledger)
        rep = consistency_report(sol, worked_h)
        assert 0.0 < rep.neglected_ratio < 0.1
        assert rep.neglected_terms_small

    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_scan_is_the_explicit_average_on_401_points(self, worked_ledger, worked_h, name):
        # the report averages basic1d at the solution's grading to its first
        # neglected degree, m + n + 2 min(m, n), and scans each degree
        sol = self.SOLVERS[name](worked_ledger)
        m, n = sol.provenance["m"], sol.provenance["n"]
        order = {(1, 1): 4, (3, 1): 6}[m, n]
        s = SchemeInstance("basic1d", worked_h, a=sol.gains["a"], eta=sol.gains["eta"],
                           m=m, n=n)
        res = average(scheme_graded_field(s, order), order, convention="w-zero-mean")
        ys = np.linspace(-1.0, 1.0, 401)[:, None]
        want = [float(np.max(np.abs(res.g_field.degree_part(i).eval(ys, 0.0, s.eps))))
                for i in range(1, order + 1)]
        rep = consistency_report(sol, worked_h)
        assert rep.details["per_degree_sup"] == want
        assert rep.details["dominant_degree"] == m + n

    @pytest.mark.parametrize("text", AUDIT_OBJECTIVES)
    def test_closed_form_report_reaches_its_first_neglected_degree(self, text):
        # at m = 3, n = 1 the averaged field has terms of degree 4 and 6;
        # a scan that stops at degree 4 finds nothing to compare
        h = parse_expr(text)
        sol = solve_strategy3_closed_form(build_ledger(h, Domain1D(-1.0, 1.0), x_star=0.0),
                                          0.01, 0.01)
        rep = consistency_report(sol, h)
        sups = rep.details["per_degree_sup"]
        assert rep.details["dominant_degree"] == 4
        assert any(v > 0.0 for v in sups[4:])
        assert rep.neglected_ratio > 0.0

    def test_no_domain_is_refused(self, worked_ledger, worked_h):
        sol = self.SOLVERS["s3_closed_form"](worked_ledger)
        sol = dataclasses.replace(sol, provenance={})
        with pytest.raises(MetaOptError, match="no domain available"):
            consistency_report(sol, worked_h)


class TestTablesPerObjective:
    """solve_numeric builds the RemainderTables of an objective once and
    shares them among strategies 1, 2 and 4, with the bits of fresh tables."""

    CALLS = {1: {"strategy": 1, "delta": 0.02},
             2: {"strategy": 2, "delta1": 0.01, "delta2": 0.01},
             4: {"strategy": 4, "delta": 0.5}}

    def solve(self, ledger, strategy):
        sol = solve_numeric(MetaOptProblem(ledger, **self.CALLS[strategy]))
        return sol.gains, sol.budget, sol.active_constraints

    @pytest.fixture
    def engine_runs(self, monkeypatch):
        """The engine runs since the test began, from an empty cache."""
        runs = []
        metaopt._remainder_tables.cache_clear()
        monkeypatch.setattr(metaopt, "average",
                            lambda *args, **kw: runs.append(1) or average(*args, **kw))
        return runs

    def test_three_strategies_run_the_engine_twice(self, worked_ledger, engine_runs):
        for strategy in (1, 2, 4):
            self.solve(worked_ledger, strategy)
        assert len(engine_runs) == 2  # the p = 1 and p = 2 runs of one build

    def test_solving_order_keeps_the_bits(self, worked_ledger):
        fresh = {}
        for strategy in (1, 2, 4):
            metaopt._remainder_tables.cache_clear()
            fresh[strategy] = self.solve(worked_ledger, strategy)
        for order in ((1, 2, 4), (4, 2, 1)):
            metaopt._remainder_tables.cache_clear()
            for strategy in order:
                assert self.solve(worked_ledger, strategy) == fresh[strategy]

    def test_cache_keeps_a_fixed_number_of_objectives(self, worked_ledger, engine_runs):
        # the tables read only the ledger's domain and objective
        ledgers = [dataclasses.replace(worked_ledger, h=parse_expr(f"0.5*x^2 + {c}*x^3"))
                   for c in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)]
        for led in ledgers:
            self.solve(led, 2)
        assert len(engine_runs) == 2 * len(ledgers)
        engine_runs.clear()
        for led in ledgers[-metaopt._TABLES_KEPT:]:
            self.solve(led, 2)
        assert not engine_runs
        self.solve(ledgers[0], 2)
        assert len(engine_runs) == 2

    def test_alternating_objectives_keep_fresh_bits(self):
        # two objectives on one domain share the cache but never its tables
        ledgers = [build_ledger(parse_expr(text), Domain1D(-1.0, 1.0), x_star=0.0)
                   for text in AUDIT_OBJECTIVES[1:]]
        fresh = {}
        for i, led in enumerate(ledgers):
            metaopt._remainder_tables.cache_clear()
            fresh[i] = self.solve(led, 2)
        metaopt._remainder_tables.cache_clear()
        for i in (0, 1, 0, 1):
            assert self.solve(ledgers[i], 2) == fresh[i]

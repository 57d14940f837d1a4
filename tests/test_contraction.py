import copy
import dataclasses
import math
import pickle
import random
import tracemalloc

import pytest

from esgain import contraction
from esgain.contraction import (BoundsError, ErrorBudget,
                                NonContractingError, SingularPerturbationInputs,
                                build_ledger, lie_along,
                                plant_coupling_bound, robustness_tube,
                                singular_perturbation_bound)
from esgain.symexpr import Const, Domain1D, Var, eval_expr, parse_expr


class TestBuildLedger:
    def test_worked_objective_ledger(self, worked_ledger):
        assert worked_ledger.norm(0) == pytest.approx(1.0, abs=1e-6)
        assert worked_ledger.norm(1) == pytest.approx(math.sin(1) + 0.5, abs=1e-6)
        assert worked_ledger.norm(3) == pytest.approx(1.0 + math.sin(1), abs=1e-6)
        assert worked_ledger.kappa == pytest.approx(1.0, abs=1e-6)
        assert worked_ledger.l2_hprime > 0

    def test_quadratic_bowl(self):
        h = parse_expr("0.5*x^2", dim=1)
        led = build_ledger(h, Domain1D(-1.0, 1.0))
        assert led.norm(0) == pytest.approx(0.5, abs=1e-9)
        assert led.norm(1) == pytest.approx(1.0, abs=1e-9)
        assert led.norm(2) == pytest.approx(1.0, abs=1e-9)
        assert led.norm(3) == pytest.approx(0.0, abs=1e-12)
        assert led.kappa == pytest.approx(1.0, abs=1e-9)

    def test_ledger_scans_in_bounded_memory(self):
        # each scan evaluates its 20 001 samples a chunk at a time; the whole
        # array at once puts the peak of this objective's ledger at 2.2 MB
        h = parse_expr("-1.0697*cos(x) - 0.1525*x^3 + 0.044*x^4 + 0.0512*(exp(x) - 1 - x)")
        contraction._scan_ledger.cache_clear()
        tracemalloc.start()
        try:
            build_ledger(h, Domain1D(-1.0, 1.0), x_star=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * 2 ** 20

    def test_constant_objective_rejected(self):
        with pytest.raises(NonContractingError):
            build_ledger(Const(3.0), Domain1D(-1.0, 1.0))

    def test_objective_of_two_variables_refused_before_a_scan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the objective was scanned")
        monkeypatch.setattr("esgain.contraction.scan_supnorm", refuse)
        monkeypatch.setattr("esgain.contraction.scan_argmin", refuse)
        with pytest.raises(BoundsError, match="x2"):
            build_ledger(parse_expr("x1^2+x2^2", dim=2), Domain1D(-1.0, 1.0))

    @pytest.mark.parametrize("x_star", [2.0, -1.5, math.nextafter(1.0, 2.0), math.nan],
                             ids=["past_hi", "past_lo", "one_ulp_past_hi", "nan"])
    def test_x_star_outside_the_domain_refused_before_a_scan(self, worked_h, monkeypatch,
                                                             x_star):
        # kappa would be read where the norms were never scanned
        def refuse(*args):
            raise AssertionError("the objective was scanned")
        monkeypatch.setattr("esgain.contraction.scan_supnorm", refuse)
        with pytest.raises(BoundsError, match=r"x_star .* \[-1.0, 1.0\]"):
            build_ledger(worked_h, Domain1D(-1.0, 1.0), x_star=x_star)

    def test_shrinking_domain_never_raises_norms(self, worked_h):
        big = build_ledger(worked_h, Domain1D(-1.0, 1.0))
        small = build_ledger(worked_h, Domain1D(-0.4, 0.4))
        for i in range(4):
            assert small.norm(i) <= big.norm(i) + 1e-9

    def test_ledger_kept_per_objective_domain_and_optimum(self):
        text = "-0.9*cos(x) + 0.12*x^3 + 0.04*x^4"
        dom = Domain1D(-1.0, 1.0)
        led = build_ledger(parse_expr(text), dom, x_star=0.0)
        assert parse_expr(text) is parse_expr(text)  # parse_expr keeps the tree
        # an equal tree built apart, as a process whose parses were evicted gets
        fresh = parse_expr(text + " + 0*x")
        assert fresh == parse_expr(text) and fresh is not parse_expr(text)
        assert build_ledger(fresh, dom, x_star=0.0) is led
        for other in (build_ledger(parse_expr(text), dom, x_star=0.01),
                      build_ledger(parse_expr(text), dom, x_star=-0.0),
                      build_ledger(parse_expr(text), Domain1D(-0.5, 1.0), x_star=0.0),
                      build_ledger(parse_expr(text), dom)):
            assert other is not led
        assert str(build_ledger(parse_expr(text), dom, x_star=-0.0).x_star) == "-0.0"

    def test_cached_ledger_cannot_be_changed(self, worked_h):
        led = build_ledger(worked_h, Domain1D(-1.0, 1.0))
        assert build_ledger(worked_h, Domain1D(-1.0, 1.0)) is led
        before = led.l2_hprime
        with pytest.raises(dataclasses.FrozenInstanceError):
            led.l2_hprime = 0.0
        assert led.l2_hprime == before and led.h is worked_h
        assert copy.deepcopy(led) == led and pickle.loads(pickle.dumps(led)) == led

    def test_lie_along_composite(self):
        # L_h v = v' h - h' v for h = x^2/2, v = x: L_h x = x*x^2/2*... check numerically
        h = parse_expr("0.5*x^2", dim=1)
        v = Var(0)
        out = lie_along(h, v)
        for x in (0.3, -0.7, 1.1):
            want = 1.0 * 0.5 * x ** 2 - x * x
            assert eval_expr(out, [x]) == pytest.approx(want, abs=1e-12)


class TestClosedFormBounds:
    def test_tube_formula(self):
        assert robustness_tube(2.0, 0.5) == 0.25
        assert robustness_tube(7.3, 0.0) == 0.0

    def test_tube_scaling_properties(self):
        rng = random.Random(5)
        for _ in range(50):
            k, r, c = rng.uniform(0.1, 5), rng.uniform(0, 5), rng.uniform(0.1, 4)
            assert robustness_tube(k, c * r) == pytest.approx(c * robustness_tube(k, r))
            assert robustness_tube(c * k, r) == pytest.approx(robustness_tube(k, r) / c)

    def test_two_timescale_formula(self):
        inp = SingularPerturbationInputs(d=1.0, alpha=1.0, nu=0.1, lambda_z=1.0)
        assert singular_perturbation_bound(inp) == pytest.approx(0.1)

    def test_two_timescale_vanishes_with_timescale(self):
        vals = [singular_perturbation_bound(
            SingularPerturbationInputs(1.0, 1.0, nu, 1.0)) for nu in (0.1, 0.01, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] == pytest.approx(1e-6)

    def test_inputs_must_be_positive(self):
        with pytest.raises(BoundsError):
            SingularPerturbationInputs(1.0, 0.0, 0.1, 1.0)

    def test_plant_coupling_value(self, worked_ledger):
        b = plant_coupling_bound(0.209, 0.01, 0.477, worked_ledger.norm(0),
                                 worked_ledger.norm(1))
        assert b == pytest.approx(
            0.01 * 0.477 ** 2 * worked_ledger.norm(1) * (0.01 * 1.0 + 0.209),
            rel=1e-9)
        assert b == pytest.approx(6.7e-4, rel=0.02)

    def test_budget_rejects_negative_entries(self):
        with pytest.raises(BoundsError):
            ErrorBudget(delta1=-1.0, delta2=0.0)
        with pytest.raises(BoundsError):
            ErrorBudget(delta1=0.0, delta2=-1.0)
        ErrorBudget(delta1=0.1, delta2=0.2)

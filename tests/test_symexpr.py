import copy
import dataclasses
import math
import pickle
import random

import numpy as np
import pytest

from conftest import WORKED_H_TEXT, random_expr
from esgain.symexpr import (Const, Domain1D, Domain2D, EvalOverflowError,
                            Expr, ExprError, ParseError, Pow, Var, add, codegen,
                            compile_expr, differentiate, eval_array,
                            eval_expr, exp_of, max_var_index, mul,
                            nth_derivative, parse_expr, powi, scan_supnorm,
                            sin_of, to_string)


class TestParse:
    def test_worked_objective_parses_and_evaluates(self, worked_h):
        assert eval_expr(worked_h, [0.0]) == pytest.approx(-1.0)
        assert eval_expr(worked_h, [0.2]) == pytest.approx(-math.cos(0.2) + 0.2 ** 3 / 6)

    def test_zero_literal_and_its_derivative(self):
        e = parse_expr("0", dim=1)
        assert eval_expr(e, [3.7]) == 0.0
        assert eval_expr(differentiate(e), [3.7]) == 0.0

    def test_two_variable_expression(self):
        e = parse_expr("sin(x1)*x2", dim=2)
        assert eval_expr(e, [math.pi / 2, 3.0]) == pytest.approx(3.0)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("sin(x) + @", dim=1)
        assert exc.value.offset == 9

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("tan(x)", dim=1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("x2", dim=1)

    def test_power_binds_tighter_than_product(self):
        e = parse_expr("2*x^3", dim=1)
        assert eval_expr(e, [2.0]) == pytest.approx(16.0)


class TestDifferentiate:
    def test_worked_objective_first_derivative(self, worked_h):
        d = differentiate(worked_h)
        assert eval_expr(d, [1.0]) == pytest.approx(math.sin(1.0) + 0.5, abs=1e-12)

    def test_constant_derivative_is_zero(self):
        assert eval_expr(differentiate(Const(5.0)), [1.2]) == 0.0

    def test_third_derivative_value(self, worked_h):
        d3 = nth_derivative(worked_h, 3)
        assert eval_expr(d3, [-1.0]) == pytest.approx(1.0 - math.sin(-1.0), abs=1e-12)

    def test_axis_selects_variable(self):
        e = parse_expr("sin(x1)*x2", dim=2)
        d2 = differentiate(e, 1)
        assert eval_expr(d2, [0.3, 99.0]) == pytest.approx(math.sin(0.3))


class TestEval:
    def test_determinism_bitwise(self, worked_h):
        a = eval_expr(worked_h, [0.77])
        b = eval_expr(worked_h, [0.77])
        assert a == b and math.copysign(1, a) == math.copysign(1, b)

    def test_overflow_reported(self):
        tower = exp_of(exp_of(exp_of(powi(Var(0), 3))))
        with pytest.raises(EvalOverflowError):
            eval_expr(tower, [10.0])

    def test_power_overflow_reported(self):
        with pytest.raises(EvalOverflowError):
            eval_expr(parse_expr("x^3"), (1e200,))


class TestPowerCodegen:
    """Integer powers compile to multiplication chains (square-and-multiply),
    not to `**`: numpy's power is slow on negative bases."""

    def test_chain_agrees_with_pow_within_ulps(self):
        # a chain of k-1 roundings is off by at most about k-1 ulps from the
        # exact power, and libm's pow by at most one
        rng = random.Random(31)
        checked = 0
        for _ in range(300):
            base = random_expr(rng, dim=1, depth=3)
            if isinstance(base, Const):
                continue
            fb = compile_expr(base)
            for k in range(2, 13):
                fk = compile_expr(Pow(base, k))
                for _ in range(3):
                    x = rng.uniform(-1.5, 1.5)
                    b = float(fb([x]))
                    try:
                        want = b ** k
                    except OverflowError:
                        continue
                    if want == 0.0 or not math.isfinite(want):
                        continue
                    got = float(fk([x]))
                    assert abs(got - want) <= k * math.ulp(want), (to_string(base), k, x)
                    checked += 1
        assert checked > 5000

    def test_array_evaluation_bitwise_equals_scalar(self):
        rng = random.Random(5)
        for _ in range(500):
            e = random_expr(rng, dim=1, depth=5)
            xs = np.array([rng.uniform(-1.5, 1.5) for _ in range(16)])
            with np.errstate(all="ignore"):
                arr = eval_array(e, [xs])
                one = np.array([float(compile_expr(e)([float(x)])) for x in xs])
            assert np.array_equal(arr, one, equal_nan=True), to_string(e)

    def test_no_pow_operator_in_source(self):
        for k in range(2, 13):
            src = codegen(powi(Var(0), k))
            assert "**" not in src
            # square-and-multiply: one squaring per bit after the first,
            # one multiply per set bit after the first
            assert src.count("*") == (k.bit_length() - 1) + (k.bit_count() - 1)
            assert compile_expr(powi(Var(0), k))([3.0]) == 3.0 ** k

    def test_compound_base_evaluated_once(self):
        e = parse_expr("(exp(x) - 1 - x)^3 + 2*(exp(x) - 1 - x)^6", dim=1)
        src = codegen(e)
        assert src.count("exp(") == 2  # once per power, not once per factor
        assert src == codegen(parse_expr("(exp(x) - 1 - x)^3 + 2*(exp(x) - 1 - x)^6"))
        y = math.exp(0.7) - 1 - 0.7
        assert eval_expr(e, [0.7]) == pytest.approx(y ** 3 + 2 * y ** 6, rel=1e-14)


    def test_zero_exponent_compiles_to_one(self):
        # a Pow built directly, not through powi, folds and differentiates as
        # powi's folded constant does
        for base in (Var(0), parse_expr("sin(x) + x^2")):
            e = Pow(base, 0)
            assert codegen(e) == codegen(powi(base, 0)) == "lambda p: 1.0"
            assert eval_expr(e, [0.3]) == 1.0
            xs = np.array([-1.0, 0.0, 2.5])
            assert np.array_equal(eval_array(e, [xs]), np.ones(3))
            assert differentiate(e) == differentiate(powi(base, 0)) == Const(0.0)

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_exponent_rejected(self, k):
        with pytest.raises(ExprError):
            powi(Var(0), k)
        with pytest.raises(ExprError):
            codegen(Pow(Var(0), k))
        with pytest.raises(ExprError):
            compile_expr(Pow(add(Var(0), Const(1.0)), k))


class TestSupNorm:
    def test_worked_objective_norms(self, worked_h):
        dom = Domain1D(-1.0, 1.0)
        assert float(scan_supnorm(worked_h, dom)) == pytest.approx(1.0, abs=1e-9)
        d3 = nth_derivative(worked_h, 3)
        assert float(scan_supnorm(d3, dom)) == pytest.approx(1.0 + math.sin(1.0), abs=1e-9)

    def test_constant_supnorm(self):
        est = scan_supnorm(Const(-2.5), Domain1D(0.0, 1.0))
        assert float(est) == 2.5

    def test_two_dimensional_domain(self):
        e = parse_expr("x1^2 + x2^2", dim=2)
        est = scan_supnorm(e, Domain2D(-1.0, 1.0, -1.0, 1.0))
        assert float(est) == pytest.approx(2.0, abs=1e-6)

    def test_monotone_under_domain_inclusion(self, worked_h):
        d1 = differentiate(worked_h)
        small = float(scan_supnorm(d1, Domain1D(-0.5, 0.5)))
        big = float(scan_supnorm(d1, Domain1D(-1.0, 1.0)))
        assert small <= big + 1e-9


class TestRandomCorpus:
    """Seeded corpus over the full grammar: symbolic derivative agrees with
    central differences and printing round-trips structurally."""

    N_EXPRS = 1000
    N_POINTS = 10

    def test_derivative_matches_central_difference(self):
        rng = random.Random(20260826)
        checked = 0
        for _ in range(self.N_EXPRS):
            e = random_expr(rng, dim=1, depth=5)
            d = differentiate(e)
            for _ in range(self.N_POINTS):
                x = rng.uniform(-1.0, 1.0)

                def central(step):
                    return (eval_expr(e, [x + step]) - eval_expr(e, [x - step])) / (2 * step)

                try:
                    v = eval_expr(e, [x])
                    # Richardson extrapolation cancels the h^2 truncation term
                    num = (4.0 * central(5e-5) - central(1e-4)) / 3.0
                    sym = eval_expr(d, [x])
                except EvalOverflowError:
                    continue
                if not (math.isfinite(num) and abs(v) < 1e6 and abs(sym) < 1e6):
                    continue  # outside the numerically comparable range
                assert abs(sym - num) <= 1e-6 * (1.0 + abs(sym) + abs(v))
                checked += 1
        assert checked > 5000  # the skip guards must not hollow out the test

    def test_print_parse_round_trip(self):
        rng = random.Random(99)
        for _ in range(self.N_EXPRS):
            dim = rng.choice([1, 2])
            e = random_expr(rng, dim=dim, depth=5)
            text = to_string(e)
            assert parse_expr(text, dim=dim) == e
            # a second, cached print and a print of an uncached copy agree
            assert to_string(e) == text == to_string(copy.deepcopy(e))


class _Fresh:
    """Hashes an expression by walking its fields, bypassing node caches."""

    def __init__(self, e):
        self.e = e

    def __hash__(self):
        return fresh_hash(self.e)


def fresh_hash(e) -> int:
    """The frozen-dataclass hash, hash(tuple of field values), computed
    from scratch at every level of the tree."""
    vals = []
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        if isinstance(v, Expr):
            v = _Fresh(v)
        elif isinstance(v, tuple):
            v = tuple(_Fresh(c) for c in v)
        vals.append(v)
    return hash(tuple(vals))


class TestNodeCaches:
    """Nodes cache their hash, largest variable index and printed forms
    outside their dataclass fields; the caches must not be observable."""

    def test_cached_hash_equals_fresh_structural_hash(self):
        rng = random.Random(7)
        for _ in range(300):
            e = random_expr(rng, dim=rng.choice([1, 2]), depth=5)
            first = hash(e)
            assert first == fresh_hash(e)
            assert hash(e) == first
            assert hash(copy.deepcopy(e)) == first

    def test_shared_subtree_prints_per_root_naming(self):
        sub = mul(sin_of(Var(0)), powi(Var(0), 2))
        one = add(sub, Const(1.0))
        two = add(sub, Var(1))
        assert to_string(one) == "((sin(x) * x^2) + 1.0)"
        assert to_string(two) == "((sin(x1) * x1^2) + x2)"
        assert to_string(sub) == "(sin(x) * x^2)"
        assert to_string(one) == "((sin(x) * x^2) + 1.0)"
        # the same with the 2-D root printed first
        sub = mul(sin_of(Var(0)), powi(Var(0), 2))
        two = add(sub, Var(1))
        assert str(two) == "((sin(x1) * x1^2) + x2)"
        assert str(sub) == "(sin(x) * x^2)"
        assert max_var_index(two) == 1 and max_var_index(sub) == 0

    def test_caches_invisible_to_eq_repr_fields_and_pickle(self):
        e = parse_expr("sin(x1)*x2^2 + exp(-x1) - 3", dim=2)
        twin = parse_expr("sin(x1)*x2^2 + exp(-x1) - 3", dim=2)
        before = repr(e)
        state = pickle.dumps(twin)
        hash(e), str(e), max_var_index(e)  # fill the caches of e only
        d0, d1 = differentiate(e, 0), differentiate(e, 1)
        assert e == twin and twin == e
        assert repr(e) == before == repr(twin)
        assert [f.name for f in dataclasses.fields(e)] == ["terms"]
        assert pickle.dumps(e) == state  # caches are not part of the state
        clone = pickle.loads(pickle.dumps(e))
        assert clone == e and hash(clone) == hash(e) and str(clone) == str(e)
        assert vars(clone) == vars(twin) == {"terms": twin.terms}
        clone = copy.deepcopy(e)
        assert clone.__reduce_ex__(4)[2] == {"terms": twin.terms}
        assert not any(hasattr(node, "_deriv") for node in (clone, *clone.terms))
        assert differentiate(clone, 0) == d0 and differentiate(clone, 1) == d1
        with pytest.raises(dataclasses.FrozenInstanceError):
            e._hash = 0

    def test_cached_derivative_equals_uncached(self):
        rng = random.Random(17)
        for _ in range(300):
            dim = rng.choice([1, 2])
            e = random_expr(rng, dim=dim, depth=5)
            root = add(mul(e, sin_of(e)), powi(e, 2))  # e is shared three times
            axes = list(range(dim))
            rng.shuffle(axes)
            for axis in axes:
                differentiate(e, axis)  # warm the shared subtree first
                d = differentiate(root, axis)
                assert d == differentiate(copy.deepcopy(root), axis)
                assert d == differentiate(parse_expr(to_string(root), dim=dim), axis)
                assert differentiate(root, axis) is d  # the second call is a hit

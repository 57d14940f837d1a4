import ast
import copy
import dataclasses
import functools
import math
import operator
import pickle
import random

import numpy as np
import pytest

from conftest import WORKED_H_TEXT, random_expr
from esgain import symexpr
from esgain.schemes import dithered_field
from esgain.symexpr import (Const, Domain, Domain1D, EvalOverflowError,
                            Cos, Exp, Expr, ExprError, Neg, ParseError, Pow, Prod,
                            Sin, Sum, Var, add, codegen,
                            compile_expr, compile_exprs, differentiate, eval_array,
                            eval_expr, exp_of, max_var_index, mul,
                            nth_derivative, parse_expr, powi, scan_argmin,
                            scan_supnorm, sin_of, to_string)


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
        with pytest.raises(ParseError, match="x4 used in a 3-D"):
            parse_expr("x1 + x4", dim=3)

    def test_any_dimension_reads_x1_to_xdim(self):
        e = parse_expr("x + x2*x3 + x12", dim=12)
        assert eval_expr(e, [1.0] + [2.0, 3.0] + [0.0] * 8 + [4.0]) == 11.0
        assert parse_expr("x1", dim=3) == parse_expr("x", dim=3) == Var(0)
        for text in ("x0", "x01"):
            with pytest.raises(ParseError, match="unknown identifier"):
                parse_expr(text, dim=3)
        with pytest.raises(ExprError, match="at least 1"):
            parse_expr("x", dim=0)

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


class TestFloatTranscendentals:
    """The float march calls libm's sin and cos and the cells march numpy's
    ufuncs; the two marches agree bit for bit only while these give the same
    doubles. A numpy build with its own float64 sin or cos fails here."""

    @staticmethod
    def adversarial() -> np.ndarray:
        rng = np.random.default_rng(26)
        k = np.arange(-100_000, 100_001, dtype=float) * (0.5 * math.pi)  # |x| up to 1.6e5
        tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0 ** 1023, -2.0 ** 1023])
        mags = np.logspace(-300, 300, 6001)
        parts = [k, np.nextafter(k, np.inf), np.nextafter(k, -np.inf), tiny, mags, -mags,
                 rng.uniform(-4.0, 4.0, 200_000), rng.uniform(-200.0, 200.0, 100_000),
                 rng.standard_normal(100_000) * 10.0 ** rng.integers(-20, 20, 100_000)]
        return np.concatenate(parts)

    @pytest.mark.parametrize("name", ["sin", "cos"])
    def test_libm_equals_numpy_bit_for_bit(self, name):
        xs = self.adversarial()
        want = getattr(np, name)(xs)
        got = np.array([getattr(math, name)(v) for v in xs.tolist()])
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert differ.size == 0, f"math.{name} != np.{name} at {xs[differ[:5]].tolist()}"

    @pytest.mark.parametrize("name", ["sin", "cos"])
    def test_float_namespace_gives_nan_where_numpy_does(self, name):
        # libm raises ValueError at ±inf; the ufunc, and so the float march, gives nan
        f = symexpr._FLOAT_NAMESPACE[name]
        with np.errstate(invalid="ignore"):
            for v in (math.inf, -math.inf, math.nan):
                assert math.isnan(f(v)) and np.isnan(getattr(np, name)(v))
        assert f(0.5) == getattr(np, name)(0.5)


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
        assert src.count("exp(") == 1  # the shared base once, not once per power
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


    @pytest.mark.parametrize("text", [WORKED_H_TEXT,
                                      "-0.98*cos(x) + 0.12*x^3 + 0.03*x^4 + 0.1*(exp(x) - 1 - x)"])
    def test_march_subtracts_and_squares_once_per_stage(self, text, monkeypatch):
        # the objective inside a gain-map march: no multiply by -1.0, and
        # x^3 and x^4 share one square of the state per stage
        sources = []
        real = symexpr._compile_factory
        monkeypatch.setattr(symexpr, "_compile_factory",
                            lambda source, *rest: sources.append(source) or real(source, *rest))
        h = parse_expr(text)
        dithered_field(h, np.array([0.2, 0.3]), np.array([0.01, 0.02])).rk4(0.05)
        dithered_field(h, 0.2, 0.01).rk4(0.05)
        assert len(sources) == 2
        for source in sources:
            assert "-1.0*" not in source
            assert source.count("_v0*_v0") == 4

    def test_powers_of_one_variable_share_its_square(self):
        src = codegen(parse_expr("x^3 + x^4 + 2*x^2"))
        assert src.count("p[0]*p[0]") == 1
        assert src.count("*") == 4   # the square, then one multiply each for x^3, x^4, 2*x^2


class TestSupNorm:
    def test_worked_objective_norms(self, worked_h):
        dom = Domain1D(-1.0, 1.0)
        assert float(scan_supnorm(worked_h, dom)) == pytest.approx(1.0, abs=1e-9)
        d3 = nth_derivative(worked_h, 3)
        assert float(scan_supnorm(d3, dom)) == pytest.approx(1.0 + math.sin(1.0), abs=1e-9)

    def test_constant_supnorm(self):
        est = scan_supnorm(Const(-2.5), Domain1D(0.0, 1.0))
        assert float(est) == 2.5

    @pytest.mark.parametrize("intervals", [(), ((-1.0, 1.0), (-1.0, 1.0)),
                                           ((-1.0, 1.0),) * 3])
    def test_a_domain_holds_exactly_one_interval(self, intervals):
        with pytest.raises(ExprError, match=f"one interval, got {len(intervals)}"):
            Domain(intervals)

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, 0.0)])
    def test_empty_interval_is_refused(self, lo, hi):
        with pytest.raises(ExprError, match="empty interval"):
            Domain1D(lo, hi)

    def test_domain1d_holds_one_float_interval(self):
        # the shape tune.json prints as [[lo, hi]]
        dom = Domain1D(-1, 2)
        assert dom.intervals == ((-1.0, 2.0),)
        assert all(type(v) is float for v in dom.intervals[0])

    def test_argmin_is_a_one_tuple_at_the_minimum(self):
        x_min = scan_argmin(parse_expr("(x - 0.3)^2 + 1"), Domain1D(-1.0, 1.0))
        assert len(x_min) == 1
        # a golden-section search of a flat minimum resolves x to about sqrt(eps)
        assert x_min[0] == pytest.approx(0.3, abs=1e-6)

    def test_monotone_under_domain_inclusion(self, worked_h):
        d1 = differentiate(worked_h)
        small = float(scan_supnorm(d1, Domain1D(-0.5, 0.5)))
        big = float(scan_supnorm(d1, Domain1D(-1.0, 1.0)))
        assert small <= big + 1e-9

    @staticmethod
    def one_array_scan(e, dom, score):
        """(x, score) of a scan that evaluates all its samples in one array."""
        lo, hi = dom.intervals[0]
        xs = np.linspace(lo, hi, symexpr._SCAN_SAMPLES_1D)
        vals = score(eval_array(e, [xs]))
        i = int(np.argmax(vals))
        spacing = (hi - lo) / (xs.size - 1)
        fn = compile_expr(e)
        x_ref, v_ref = symexpr._golden_max(lambda x: score(float(fn([x]))),
                                           max(lo, xs[i] - spacing), min(hi, xs[i] + spacing))
        return (float(x_ref), float(v_ref)) if v_ref >= vals[i] else (float(xs[i]), float(vals[i]))

    def test_chunked_scans_equal_one_array(self):
        # the five scans of a ledger of a benchmark objective, h to its third
        # derivative and |L_h^2 h'|, chunk by chunk give the bits of one array
        from esgain.contraction import lie_along
        h = parse_expr("-1.0697*cos(x) - 0.1525*x^3 + 0.044*x^4 + 0.0512*(exp(x) - 1 - x)")
        d1 = differentiate(h)
        dom = Domain1D(-1.0, 1.0)
        xs = np.linspace(-1.0, 1.0, symexpr._SCAN_SAMPLES_1D)
        step = symexpr._SCAN_CHUNK
        assert step < xs.size
        for e in (h, d1, differentiate(d1), nth_derivative(h, 3), lie_along(h, lie_along(h, d1))):
            chunks = [eval_array(e, [xs[i:i + step]]) for i in range(0, xs.size, step)]
            assert np.array_equal(np.concatenate(chunks), eval_array(e, [xs]))
            assert scan_supnorm(e, dom) == self.one_array_scan(e, dom, abs)[1]
            assert scan_argmin(e, dom) == (self.one_array_scan(e, dom, lambda v: -v)[0],)

    def test_equal_best_samples_in_two_chunks_keep_the_first(self):
        # -x^2 is least at both ends, in the first chunk and the last; one
        # argmax picks the first sample, and so does the chunked scan
        e = parse_expr("-x^2")
        assert scan_argmin(e, Domain1D(-1.0, 1.0)) == (-1.0,)
        assert self.one_array_scan(e, Domain1D(-1.0, 1.0), lambda v: -v)[0] == -1.0


def plain_power(b, k):
    """b^k by square-and-multiply, the chain the code generator writes."""
    if k == 1:
        return b
    if k % 2:
        return plain_power(b, k - 1) * b
    half = plain_power(b, k // 2)
    return half * half


def plain_eval(e, xs):
    """e at points xs (one array per variable) by plain numpy recursion:
    sums and products folded left to right, powers by square-and-multiply."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return xs[e.index]
    if isinstance(e, Sum):
        return functools.reduce(operator.add, [plain_eval(t, xs) for t in e.terms])
    if isinstance(e, Prod):
        return functools.reduce(operator.mul, [plain_eval(f, xs) for f in e.factors])
    if isinstance(e, Neg):
        return -plain_eval(e.arg, xs)
    if isinstance(e, Pow):
        return plain_power(plain_eval(e.base, xs), e.exponent)
    ufunc = {Sin: np.sin, Cos: np.cos, Exp: np.exp}[type(e)]
    return ufunc(plain_eval(e.arg, xs))


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

    def test_compiled_evaluation_equals_plain_numpy(self):
        # scalar and array evaluation of the generated source agree bit for
        # bit with each other and with a plain recursive evaluation, so the
        # code generator's rewrites (subtraction, shared squares) keep
        # every bit; derivatives bring the negated terms
        rng = random.Random(808)
        for _ in range(self.N_EXPRS):
            dim = rng.choice([1, 2])
            e = random_expr(rng, dim=dim, depth=5)
            for f in (e, differentiate(e)):
                xs = [np.array([rng.uniform(-1.5, 1.5) for _ in range(6)]) for _ in range(dim)]
                with np.errstate(all="ignore"):
                    want = np.broadcast_to(plain_eval(f, xs), xs[0].shape)
                    arr = eval_array(f, xs)
                    one = [compile_expr(f)([float(x[i]) for x in xs]) for i in range(6)]
                assert np.array_equal(arr, want, equal_nan=True), to_string(f)
                assert np.array_equal(np.array(one, dtype=float), want, equal_nan=True)

    def test_shared_subtrees_keep_bits_and_are_not_aliased(self):
        # an expression and its first two derivatives compiled together share
        # their subtrees; each value equals plain recursion bit for bit, and
        # no temporary is bound to another temporary's value (a march over
        # cells would have to copy it)
        rng = random.Random(4242)
        for _ in range(300):
            dim = rng.choice([1, 2])
            e = random_expr(rng, dim=dim, depth=5)
            exprs = (e, differentiate(e), differentiate(differentiate(e)))
            tree = ast.parse(codegen(exprs))
            for node in ast.walk(tree):
                if isinstance(node, ast.NamedExpr):
                    assert not isinstance(node.value, (ast.Name, ast.NamedExpr)), ast.unparse(node)
            xs = [np.array([rng.uniform(-1.5, 1.5) for _ in range(6)]) for _ in range(dim)]
            with np.errstate(all="ignore"):
                got = compile_exprs(exprs)(xs)
                for f, v in zip(exprs, got):
                    want = np.broadcast_to(plain_eval(f, xs), xs[0].shape)
                    assert np.array_equal(np.broadcast_to(v, want.shape), want, equal_nan=True)

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

"""Symbolic scalar expressions over a small, differentiation-closed grammar.

Nodes: real constants, state variables, sums, products, negation, integer
powers, sin, cos, exp. Simplification is deliberately limited to constant
folding, 0/1 identities and flattening of nested sums/products so that
structural equality stays decidable. Division is excluded by design.

The parser accepts expressions over "x" (1-D) or "x1"/"x2" (2-D). Internally
higher variable indices are allowed (they arise for multi-state schemes) but
are not part of the textual grammar.

Expressions compile to Python source. The same code generator builds
`Field`s: right-hand sides of ODEs with their RK4 integrators.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalOverflowError(ExprError):
    """Evaluation produced a non-finite value."""


class Expr:
    """Base of the node types.

    Nodes are immutable, so each one computes its structural hash, its
    largest variable index, its rendering and its derivatives once and keeps
    them in slots. The slots are not dataclass fields: `==`, `repr`,
    `fields()` and pickles see only the structure."""
    __slots__ = ("_hash", "_max_var", "_text_x", "_text_xi", "_deriv")

    def __str__(self) -> str:
        return to_string(self)

    def __getstate__(self):
        return self.__dict__  # the fields only; caches are rebuilt on demand


def _node(cls):
    """Frozen dataclass whose structural hash is computed once per node."""
    cls = dataclass(frozen=True)(cls)
    structural = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@_node
class Const(Expr):
    value: float


@_node
class Var(Expr):
    index: int


@_node
class Sum(Expr):
    terms: tuple


@_node
class Prod(Expr):
    factors: tuple


@_node
class Neg(Expr):
    arg: Expr


@_node
class Pow(Expr):
    base: Expr
    exponent: int


@_node
class Sin(Expr):
    arg: Expr


@_node
class Cos(Expr):
    arg: Expr


@_node
class Exp(Expr):
    arg: Expr


ZERO = Const(0.0)
ONE = Const(1.0)


def is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


# ---------------------------------------------------------------------------
# smart constructors (the only simplification layer)

def _coeff_core(e: Expr) -> tuple:
    """Split a term into (numeric coefficient, structural core) so that
    like terms can be collected: Neg flips the sign, a leading Const in a
    Prod is the coefficient."""
    coeff = 1.0
    if isinstance(e, Neg):
        coeff = -1.0
        e = e.arg
    if isinstance(e, Prod):
        rest = []
        for f in e.factors:
            if isinstance(f, Const):
                coeff *= f.value
            else:
                rest.append(f)
        if not rest:
            return coeff, ONE
        e = rest[0] if len(rest) == 1 else Prod(tuple(rest))
    return coeff, e


def add(*terms: Expr) -> Expr:
    const = 0.0
    coeffs: dict = {}
    order: list[Expr] = []
    for t in terms:
        parts = t.terms if isinstance(t, Sum) else (t,)
        for u in parts:
            if isinstance(u, Const):
                const += u.value
                continue
            c, core = _coeff_core(u)
            if core is ONE or (isinstance(core, Const) and core.value == 1.0):
                const += c
                continue
            if core not in coeffs:
                order.append(core)
            coeffs[core] = coeffs.get(core, 0.0) + c
    flat: list[Expr] = []
    for core in order:
        c = coeffs[core]
        if c == 0.0:
            continue
        flat.append(core if c == 1.0 else mul(Const(c), core))
    if const != 0.0 or not flat:
        flat.append(Const(const))
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*factors: Expr) -> Expr:
    flat: list[Expr] = []
    const = 1.0
    for f in factors:
        parts = f.factors if isinstance(f, Prod) else (f,)
        for u in parts:
            if isinstance(u, Neg):
                const = -const
                u = u.arg
                if isinstance(u, Prod):
                    for v in u.factors:
                        if isinstance(v, Const):
                            const *= v.value
                        else:
                            flat.append(v)
                    continue
            if isinstance(u, Const):
                const *= u.value
            else:
                flat.append(u)
    if const == 0.0:
        return ZERO
    if const != 1.0 or not flat:
        flat.insert(0, Const(const))
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    if isinstance(e, Prod):
        return mul(Const(-1.0), e)
    return Neg(e)


def powi(base: Expr, exponent: int) -> Expr:
    if exponent < 0:
        raise ExprError("negative exponents are outside the grammar")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** exponent)
    return Pow(base, exponent)


def sin_of(e: Expr) -> Expr:
    return Const(math.sin(e.value)) if isinstance(e, Const) else Sin(e)


def cos_of(e: Expr) -> Expr:
    return Const(math.cos(e.value)) if isinstance(e, Const) else Cos(e)


def exp_of(e: Expr) -> Expr:
    if isinstance(e, Const):
        try:
            return Const(math.exp(e.value))
        except OverflowError:
            return Exp(e)  # fold only when the constant is representable
    return Exp(e)


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e: Expr, axis: int = 0) -> Expr:
    """Exact symbolic derivative with respect to state variable `axis`.
    Memoised per node and axis, so a shared subtree is differentiated once."""
    try:
        cache = e._deriv
    except AttributeError:
        cache = {}
        object.__setattr__(e, "_deriv", cache)
    d = cache.get(axis)
    if d is None:
        d = cache[axis] = _derivative(e, axis)
    return d


def _derivative(e: Expr, axis: int) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == axis else ZERO
    if isinstance(e, Sum):
        return add(*(differentiate(t, axis) for t in e.terms))
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, axis))
    if isinstance(e, Prod):
        pieces = []
        for i, f in enumerate(e.factors):
            df = differentiate(f, axis)
            if is_zero(df):
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            pieces.append(mul(df, *rest))
        return add(*pieces) if pieces else ZERO
    if isinstance(e, Pow):
        db = differentiate(e.base, axis)
        if is_zero(db) or e.exponent == 0:  # a directly built Pow(b, 0) is 1
            return ZERO
        return mul(Const(float(e.exponent)), powi(e.base, e.exponent - 1), db)
    if isinstance(e, Sin):
        return mul(cos_of(e.arg), differentiate(e.arg, axis))
    if isinstance(e, Cos):
        return neg(mul(sin_of(e.arg), differentiate(e.arg, axis)))
    if isinstance(e, Exp):
        return mul(exp_of(e.arg), differentiate(e.arg, axis))
    raise TypeError(f"unknown node {type(e).__name__}")


def nth_derivative(e: Expr, order: int, axis: int = 0) -> Expr:
    for _ in range(order):
        e = differentiate(e, axis)
    return e


def max_var_index(e: Expr) -> int:
    """Largest variable index used, or -1 for a constant expression."""
    try:
        return e._max_var
    except AttributeError:
        pass
    if isinstance(e, Var):
        v = e.index
    elif isinstance(e, Const):
        v = -1
    elif isinstance(e, Sum):
        v = max((max_var_index(t) for t in e.terms), default=-1)
    elif isinstance(e, Prod):
        v = max((max_var_index(f) for f in e.factors), default=-1)
    elif isinstance(e, (Neg, Sin, Cos, Exp)):
        v = max_var_index(e.arg)
    elif isinstance(e, Pow):
        v = max_var_index(e.base)
    else:
        raise TypeError(type(e).__name__)
    object.__setattr__(e, "_max_var", v)
    return v


# ---------------------------------------------------------------------------
# printing (fully parenthesized, same grammar; parse(print(e)) == e)

def to_string(e: Expr) -> str:
    """Variables print as "x" when the root uses only index 0, else as
    "x1", "x2", ...; a shared subtree keeps one rendering per mode."""
    return _render(e, max_var_index(e) >= 1)


def _render(u: Expr, multi: bool) -> str:
    slot = "_text_xi" if multi else "_text_x"
    try:
        return getattr(u, slot)
    except AttributeError:
        pass
    if isinstance(u, Const):
        r = repr(u.value)
        text = f"({r})" if u.value < 0 else r
    elif isinstance(u, Var):
        text = f"x{u.index + 1}" if multi else "x"
    elif isinstance(u, Sum):
        text = "(" + " + ".join(_render(t, multi) for t in u.terms) + ")"
    elif isinstance(u, Prod):
        text = "(" + " * ".join(_render(f, multi) for f in u.factors) + ")"
    elif isinstance(u, Neg):
        text = "(-" + _render(u.arg, multi) + ")"
    elif isinstance(u, Pow):
        text = _render(u.base, multi) + "^" + str(u.exponent)
    elif isinstance(u, Sin):
        text = "sin(" + _render(u.arg, multi) + ")"
    elif isinstance(u, Cos):
        text = "cos(" + _render(u.arg, multi) + ")"
    elif isinstance(u, Exp):
        text = "exp(" + _render(u.arg, multi) + ")"
    else:
        raise TypeError(type(u).__name__)
    object.__setattr__(u, slot, text)
    return text


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*^()]))"
)

_FUNCS = {"sin": sin_of, "cos": cos_of, "exp": exp_of}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", off)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def parse_expr(text: str, dim: int = 1) -> Expr:
    """Parse `text` over the fixed grammar; raises ParseError with offset."""
    if dim not in (1, 2):
        raise ExprError(f"dim must be 1 or 2, got {dim}")
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def expect_op(op: str):
        kind, val, off = peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)
        take()

    def parse_e() -> Expr:
        kind, val, _ = peek()
        negate = False
        if kind == "op" and val in "+-":
            take()
            negate = val == "-"
        e = parse_term()
        if negate:
            e = neg(e)
        while True:
            kind, val, _ = peek()
            if kind == "op" and val in "+-":
                take()
                t = parse_term()
                e = add(e, neg(t) if val == "-" else t)
            else:
                return e

    def parse_term() -> Expr:
        e = parse_factor()
        while True:
            kind, val, _ = peek()
            if kind == "op" and val == "*":
                take()
                e = mul(e, parse_factor())
            else:
                return e

    def parse_factor() -> Expr:
        e = parse_primary()
        while True:
            kind, val, _ = peek()
            if kind == "op" and val == "^":
                take()
                k, v, off = peek()
                if k != "num" or not v.isdigit():
                    raise ParseError("expected unsigned integer exponent", off)
                take()
                e = powi(e, int(v))
            else:
                return e

    def parse_primary() -> Expr:
        kind, val, off = take()
        if kind == "num":
            return Const(float(val))
        if kind == "ident":
            if val in _FUNCS:
                expect_op("(")
                inner = parse_e()
                expect_op(")")
                return _FUNCS[val](inner)
            if val in ("x", "x1"):
                return Var(0)
            if val == "x2":
                if dim < 2:
                    raise ParseError("variable x2 used in a 1-D expression", off)
                return Var(1)
            raise ParseError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            inner = parse_e()
            expect_op(")")
            return inner
        raise ParseError("expected number, variable, function or '('", off)

    result = parse_e()
    kind, val, off = peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", off)
    return result


# ---------------------------------------------------------------------------
# evaluation

_NAMESPACE = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def _pow_chain(k: int, first: str, name: str, fresh) -> str:
    """Source of base^k as a product by square-and-multiply:
    b^(2j) = (b^j)^2 and b^(2j+1) = b^(2j) * b. The leftmost operand,
    evaluated first, is `first`; every later use of the base is `name`."""
    if k == 1:
        return first
    if k % 2:
        return f"{_pow_chain(k - 1, first, name, fresh)}*{name}"
    if k == 2:
        return f"{first}*{name}"
    t = fresh()
    return f"({t}:={_pow_chain(k // 2, first, name, fresh)})*{t}"


def _codegen(e: Expr, fresh, var) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return var(e.index)
    if isinstance(e, Sum):
        return "(" + "+".join(_codegen(t, fresh, var) for t in e.terms) + ")"
    if isinstance(e, Prod):
        return "(" + "*".join(_codegen(f, fresh, var) for f in e.factors) + ")"
    if isinstance(e, Neg):
        return "(-" + _codegen(e.arg, fresh, var) + ")"
    if isinstance(e, Pow):
        # a node built directly, not through powi: fold and reject as it does
        if e.exponent < 0:
            raise ExprError("negative exponents are outside the grammar")
        if e.exponent == 0:
            return repr(ONE.value)
        # numpy's power takes libm's slow path on negative bases; products
        # do not. A compound base is bound to a temporary and evaluated once.
        base = _codegen(e.base, fresh, var)
        if isinstance(e.base, (Var, Const)):
            return "(" + _pow_chain(e.exponent, base, base, fresh) + ")"
        name = fresh()
        return "(" + _pow_chain(e.exponent, f"({name}:={base})", name, fresh) + ")"
    if isinstance(e, Sin):
        return "sin(" + _codegen(e.arg, fresh, var) + ")"
    if isinstance(e, Cos):
        return "cos(" + _codegen(e.arg, fresh, var) + ")"
    if isinstance(e, Exp):
        return "exp(" + _codegen(e.arg, fresh, var) + ")"
    raise TypeError(type(e).__name__)


def expr_source(e: Expr, names=None) -> str:
    """Python source of `e`. Variable i reads `names[i]`, or `p[i]` without
    names. Integer powers become multiplication chains. Temporaries are
    named `_t0`, `_t1`, ... from a counter local to the call, so the source
    is deterministic."""
    counter = itertools.count()
    var = names.__getitem__ if names is not None else "p[{}]".format
    return _codegen(e, lambda: f"_t{next(counter)}", var)


def codegen(e: Expr) -> str:
    """Python source of the lambda that `compile_expr` compiles."""
    return "lambda p: " + expr_source(e)


@lru_cache(maxsize=None)
def compile_expr(e: Expr):
    """Compile to a callable f(p) where p is an indexable point (scalars or
    numpy arrays per axis). Safe on both; results are numpy scalars/arrays."""
    return eval(codegen(e), dict(_NAMESPACE))  # noqa: S307 - generated from our own AST


def eval_expr(e: Expr, point) -> float:
    """IEEE-double evaluation at a point; raises on non-finite result."""
    point = tuple(float(v) for v in point)
    need = max_var_index(e) + 1
    if len(point) < need:
        raise ExprError(f"point of dim {len(point)} for expression using {need} variables")
    v = float(compile_expr(e)(point))
    if not math.isfinite(v):
        raise EvalOverflowError(f"non-finite value at {point}")
    return v


def eval_array(e: Expr, axes) -> np.ndarray:
    """Vectorized evaluation; `axes` is a sequence of equally-shaped arrays."""
    out = compile_expr(e)(list(np.asarray(a, dtype=float) for a in axes))
    return np.broadcast_to(np.asarray(out, dtype=float), np.asarray(axes[0]).shape).copy() \
        if np.ndim(out) == 0 else np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# generated right-hand sides and RK4 steps

def _float_valued(ufunc):
    """`ufunc` on a Python float, returning a Python float: the same bits as
    the ufunc, while the arithmetic that follows stays on Python floats."""
    def f(v):
        return float(ufunc(v))
    return f


_FLOAT_NAMESPACE = {name: _float_valued(fn) for name, fn in _NAMESPACE.items()}


@lru_cache(maxsize=None)
def _compile_factory(source: str, flavour: str):
    """`_make` of a generated source. Flavour "float" runs on Python floats,
    "array" on numpy values of any shape."""
    namespace = dict(_FLOAT_NAMESPACE if flavour == "float" else _NAMESPACE,
                     asarray=np.asarray, broadcast_to=np.broadcast_to)
    exec(source, namespace)  # noqa: S102 - generated from our own sources
    return namespace["_make"]


class Field:
    """A right-hand side f(t, x) written as Python source, from which both
    f itself and its classical RK4 march are generated.

    `dither` holds (name, source) bindings that depend on the time `t` only,
    `body` holds bindings over the state `x0, x1, ...`, the dither names and
    the parameters, in order, and `comps` are the sources of the components
    of xdot. Parameter values are bound when a function is built: floats,
    or arrays of one shape with one element per cell. The generated code
    runs the sources' operations in their order, and the transcendentals
    are numpy's ufuncs also on floats, so a float state and an array state
    give the same bits."""

    def __init__(self, comps, body=(), dither=(), **params):
        self.comps = tuple(comps)
        self.body = tuple(body)
        self.dither = tuple(dither)
        self.params = params

    @classmethod
    def scaled(cls, coeff, exprs) -> "Field":
        """The autonomous field coeff * e_i(x)."""
        names = [f"x{i}" for i in range(len(exprs))]
        return cls([f"c*{expr_source(e, names)}" for e in exprs], c=coeff)

    @classmethod
    def of_callable(cls, rhs, dim: int) -> "Field":
        """A plain callable rhs(t, x) -> xdot; it sees the state as an array
        and its result is broadcast to the state's shape."""
        x = "[" + ", ".join(f"x{i}" for i in range(dim)) + "]"
        return cls([f"_f[{i}]" for i in range(dim)],
                   [("_f", f"broadcast_to(asarray(rhs(t, asarray({x})), dtype=float), ({dim},))")],
                   rhs=rhs)

    @property
    def dim(self) -> int:
        return len(self.comps)

    def __call__(self, t, x) -> np.ndarray:
        """xdot at (t, x); x is indexed by component, so trailing axes broadcast."""
        try:
            fn = self._rhs
        except AttributeError:
            lines = [f"x{i} = x[{i}]" for i in range(self.dim)]
            lines += self._stage_lines(dither=True)
            lines.append("return asarray([" + ", ".join(self.comps) + "])")
            fn = self._rhs = self._build("t, x", lines, (), "array")
        return fn(t, x)

    def rk4(self, dt: float):
        """march(t, y, n) -> (states, t): n classical RK4 steps of size dt
        from time t and state y, with time accumulating by t += dt; states
        lists the state after each step. A state is a tuple with one float,
        or one array of cells, per component; float states need float
        parameters."""
        n = range(self.dim)
        ys = "".join(f"_y{i}, " for i in n)
        lines = [f"{ys}= _y", "_states = []", "for _ in range(_n):"]
        stages = (("_time", None), ("_time + _dt2", "_dt2"), (None, "_dt2"),
                  ("_time + _dt", "_dt"))
        body = []
        for s, (time, scale) in enumerate(stages, 1):
            if time is not None:
                body.append(f"t = {time}")
            body += [f"x{i} = _y{i}" if scale is None else f"x{i} = _y{i} + {scale}*_k{s - 1}_{i}"
                     for i in n]
            body += self._stage_lines(dither=time is not None)
            body += [f"_k{s}_{i} = {c}" for i, c in enumerate(self.comps)]
        body += [f"_y{i} = _y{i} + _dt6*(_k1_{i} + 2.0*_k2_{i} + 2.0*_k3_{i} + _k4_{i})" for i in n]
        body += ["_time += _dt", f"_states.append(({ys}))"]
        lines += ["    " + line for line in body] + ["return _states, _time"]
        cells = any(isinstance(v, np.ndarray) for v in self.params.values())
        return self._build("_time, _y, _n", lines, (dt, 0.5 * dt, dt / 6.0),
                           "array" if cells else "float")

    def _stage_lines(self, dither: bool) -> list:
        return [f"{name} = {src}" for name, src in (self.dither if dither else ()) + self.body]

    def _build(self, args: str, lines, consts, flavour: str):
        names = ["_dt", "_dt2", "_dt6"][:len(consts)] + list(self.params)
        values = [*consts, *self.params.values()]
        source = (f"def _make({', '.join(names)}):\n    def f({args}):\n"
                  + "".join(f"        {line}\n" for line in lines) + "    return f\n")
        return _compile_factory(source, flavour)(*values)


# ---------------------------------------------------------------------------
# domains and sup-norm scanning

@dataclass(frozen=True)
class Domain:
    """Axis-aligned closed box, 1 or 2 axes."""
    intervals: tuple

    def __post_init__(self):
        if not 1 <= len(self.intervals) <= 2:
            raise ExprError("Domain supports 1 or 2 axes")
        for lo, hi in self.intervals:
            if not (lo < hi):
                raise ExprError(f"empty interval [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.intervals)


def Domain1D(lo: float, hi: float) -> Domain:
    return Domain(((float(lo), float(hi)),))


def Domain2D(lo1: float, hi1: float, lo2: float, hi2: float) -> Domain:
    return Domain(((float(lo1), float(hi1)), (float(lo2), float(hi2))))


@dataclass(frozen=True)
class SupNormEstimate:
    value: float
    grid_spacing: float
    location: tuple

    def __float__(self) -> float:
        return self.value


def _golden_max(f, lo: float, hi: float, iters: int = 80) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def _scan_1d(fn, interval, samples: int, score) -> tuple[float, float]:
    """Best point of score(fn(x)) on an interval: dense uniform sampling, then
    golden-section refinement within one grid step of the best sample. The
    refined point is kept if its score is at least the best sample's.
    Returns (x, score)."""
    lo, hi = interval
    xs = np.linspace(lo, hi, samples)
    vals = score(np.broadcast_to(fn([xs]), xs.shape))
    if not np.all(np.isfinite(vals)):
        raise EvalOverflowError("non-finite sample during scan")
    i = int(np.argmax(vals))
    spacing = (hi - lo) / (samples - 1)
    x_ref, v_ref = _golden_max(lambda x: score(float(fn([x]))),
                               max(lo, xs[i] - spacing), min(hi, xs[i] + spacing))
    if v_ref >= vals[i]:
        return float(x_ref), float(v_ref)
    return float(xs[i]), float(vals[i])


def scan_supnorm(e: Expr, dom: Domain, samples_per_axis: int | None = None) -> SupNormEstimate:
    """Approximate sup |e| on the domain: dense uniform sampling followed by
    local golden-section refinement around the best sample. The result is a
    lower bound on the true sup, reported with the grid spacing."""
    if samples_per_axis is None:
        samples_per_axis = 20001 if dom.dim == 1 else 501
    fn = compile_expr(e)
    if dom.dim == 1:
        (lo, hi), = dom.intervals
        x, v = _scan_1d(fn, (lo, hi), samples_per_axis, abs)
        return SupNormEstimate(v, (hi - lo) / (samples_per_axis - 1), (x,))
    grids = [np.linspace(lo, hi, samples_per_axis) for lo, hi in dom.intervals]
    xx, yy = np.meshgrid(grids[0], grids[1], indexing="ij")
    vals = np.abs(np.broadcast_to(fn([xx, yy]), xx.shape))
    if not np.all(np.isfinite(vals)):
        raise EvalOverflowError("non-finite sample during sup-norm scan")
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    spacings = [(hi - lo) / (samples_per_axis - 1) for lo, hi in dom.intervals]
    best = [float(grids[0][i]), float(grids[1][j])]
    best_val = float(vals[i, j])
    for _ in range(3):  # coordinate-wise refinement sweeps
        for axis in range(2):
            lo = max(dom.intervals[axis][0], best[axis] - spacings[axis])
            hi = min(dom.intervals[axis][1], best[axis] + spacings[axis])

            def f1(x, axis=axis):
                pt = list(best)
                pt[axis] = x
                return abs(float(fn(pt)))

            xr, vr = _golden_max(f1, lo, hi)
            if vr > best_val:
                best[axis], best_val = xr, vr
    return SupNormEstimate(best_val, max(spacings), tuple(best))


def scan_argmin(e: Expr, dom: Domain, samples_per_axis: int | None = None) -> tuple:
    """Location of the minimum of e on a 1-D domain (dense scan + refinement)."""
    if dom.dim != 1:
        raise ExprError("scan_argmin scans 1-D domains")
    samples = 20001 if samples_per_axis is None else samples_per_axis
    return (_scan_1d(compile_expr(e), dom.intervals[0], samples, lambda v: -v)[0],)

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

import ast
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


_PARSES_KEPT = 64  # (text, dim) pairs whose trees parse_expr keeps


@lru_cache(maxsize=_PARSES_KEPT)
def parse_expr(text: str, dim: int = 1) -> Expr:
    """Parse `text` over the fixed grammar; raises ParseError with offset.

    The variables are `x` (the first) and `x1` .. `x{dim}`. The trees of
    the last _PARSES_KEPT (text, dim) pairs are kept, so parsing a text
    again hands back the same tree, with the derivatives and printed forms
    its nodes keep already computed."""
    if dim < 1:
        raise ExprError(f"dim must be at least 1, got {dim}")
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
            if val == "x":
                return Var(0)
            if re.fullmatch(r"x[1-9]\d*", val):
                if int(val[1:]) > dim:
                    raise ParseError(f"variable {val} used in a {dim}-D expression", off)
                return Var(int(val[1:]) - 1)
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


def _pow_chain(k: int, square: str, sq: str, name: str, fresh) -> str:
    """Source of base^k as a product by square-and-multiply:
    b^(2j) = (b^j)^2 and b^(2j+1) = b^(2j) * b, so every chain starts from
    the square. `square` evaluates b*b (binding it to `sq` where it is
    evaluated first), `sq` reads it, and `name` reads the base."""
    if k == 2:
        return square
    if k % 2:
        return f"{_pow_chain(k - 1, square, sq, name, fresh)}*{name}"
    if k == 4:
        return f"{square}*{sq}"
    t = fresh()
    return f"({t}:={_pow_chain(k // 2, square, sq, name, fresh)})*{t}"


def _negated(e: Expr):
    """b when `e` is -b, as Neg(b) or -1.0 * b, else None. a + (-b) and
    a - b are the same IEEE operation, and (-1.0*b)*c is -(b*c) exactly."""
    if isinstance(e, Neg):
        return e.arg
    if isinstance(e, Prod) and e.factors[0] == Const(-1.0):
        rest = e.factors[1:]
        return rest[0] if len(rest) == 1 else Prod(rest)
    return None


def _sum_parts(e: Sum) -> list:
    """(sign, operand) pairs in the order the source of a sum evaluates them:
    a term -b after the first is subtracted as b, and a sum that starts
    -b + c starts c - b."""
    terms = e.terms
    if len(terms) > 1 and _negated(terms[0]) is not None and _negated(terms[1]) is None:
        terms = (terms[1], terms[0], *terms[2:])   # -b + c is c - b: addition commutes
    parts = [("", terms[0])]
    for t in terms[1:]:
        b = _negated(t)
        parts.append(("+", t) if b is None else ("-", b))
    return parts


def _operands(e: Expr) -> tuple:
    """The nodes the source of `e` reads, one entry per read."""
    if isinstance(e, Sum):
        return tuple(u for _, u in _sum_parts(e))
    if isinstance(e, Prod):
        return e.factors
    if isinstance(e, Pow):
        if e.exponent <= 0:
            return ()
        if e.exponent == 1 or isinstance(e.base, (Var, Const)):
            return (e.base,)
        return (e.base, e.base)   # the square b*b reads a compound base twice
    if isinstance(e, (Neg, Sin, Cos, Exp)):
        return (e.arg,)
    return ()


def _shared(roots) -> set:
    """The non-leaf nodes that the source of `roots` reads more than once,
    counting the reads of a node's operands once per distinct node."""
    counts: dict = {}
    stack = list(roots)
    while stack:
        e = stack.pop()
        if isinstance(e, (Const, Var)):
            continue
        n = counts[e] = counts.get(e, 0) + 1
        if n == 1:
            stack.extend(_operands(e))
    return {e for e, n in counts.items() if n > 1}


def _sources(exprs, names=None) -> list:
    """The sources of `exprs`, evaluated in order, sharing one set of
    temporaries (see `expr_source`). The temporary of a power base's square
    also holds the base's power 2."""
    var = names.__getitem__ if names is not None else "p[{}]".format
    shared = _shared(exprs)
    temps: dict = {}     # shared node -> the temporary holding it
    squares: dict = {}   # power base -> the temporary holding its square
    counter = itertools.count()

    def fresh() -> str:
        return f"_t{next(counter)}"

    def source(e: Expr) -> str:
        name = temps.get(e)
        if name is not None:
            return name
        src = node(e)
        if e in shared:
            if isinstance(e, Pow) and e.exponent == 2:
                temps[e] = squares[e.base]
            else:
                name = temps[e] = fresh()
                src = f"({name}:={src})"
        return src

    def node(e: Expr) -> str:
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, Var):
            return var(e.index)
        if isinstance(e, Sum):
            return "(" + "".join(sign + source(u) for sign, u in _sum_parts(e)) + ")"
        if isinstance(e, Prod):
            return "(" + "*".join(source(f) for f in e.factors) + ")"
        if isinstance(e, Neg):
            return "(-" + source(e.arg) + ")"
        if isinstance(e, Pow):
            # a node built directly, not through powi: fold and reject as it does
            if e.exponent < 0:
                raise ExprError("negative exponents are outside the grammar")
            if e.exponent == 0:
                return repr(ONE.value)
            base = source(e.base)
            if e.exponent == 1:
                return "(" + base + ")"
            # numpy's power takes libm's slow path on negative bases; products
            # do not. A compound base is read twice, so it is shared: the
            # chain reads its temporary.
            name = base if isinstance(e.base, (Var, Const)) else temps[e.base]
            sq = squares.get(e.base)
            if sq is None:
                sq = squares[e.base] = fresh()
                square = f"({sq}:={base}*{name})"
            else:
                square = sq
            return "(" + _pow_chain(e.exponent, square, sq, name, fresh) + ")"
        if isinstance(e, Sin):
            return "sin(" + source(e.arg) + ")"
        if isinstance(e, Cos):
            return "cos(" + source(e.arg) + ")"
        if isinstance(e, Exp):
            return "exp(" + source(e.arg) + ")"
        raise TypeError(type(e).__name__)

    return [source(e) for e in exprs]


def expr_source(e: Expr, names=None) -> str:
    """Python source of `e`. Variable i reads `names[i]`, or `p[i]` without
    names. Each distinct non-leaf subtree is evaluated once: a subtree the
    source reads more than once is bound to a temporary where it is first
    evaluated (left to right), and later reads name it. Every occurrence
    runs the same operations on the same operands, so sharing keeps the
    bits. Integer powers become multiplication chains, and the powers of
    one base share its square; a term -b of a sum is subtracted, and a sum
    that starts -b + c starts c - b.
    Temporaries are named `_t0`, `_t1`, ... from a counter local to the
    call, so the source is deterministic."""
    return _sources((e,), names)[0]


def codegen(e) -> str:
    """Python source of the lambda that `compile_expr` compiles from an
    expression, or that `compile_exprs` compiles from a tuple of them."""
    if isinstance(e, Expr):
        return "lambda p: " + expr_source(e)
    return "lambda p: (" + "".join(s + ", " for s in _sources(e)) + ")"


@lru_cache(maxsize=None)
def compile_expr(e: Expr):
    """Compile to a callable f(p) where p is an indexable point (scalars or
    numpy arrays per axis). Safe on both; results are numpy scalars/arrays.
    Its source is `codegen(e)`, so each distinct subtree runs once."""
    return eval(codegen(e), dict(_NAMESPACE))  # noqa: S307 - generated from our own AST


@lru_cache(maxsize=None)
def compile_exprs(exprs: tuple):
    """Compile a tuple of expressions to one callable f(p) that returns the
    tuple of their values, each the bits `compile_expr` gives. A subtree
    shared across the tuple runs once."""
    return eval(codegen(exprs), dict(_NAMESPACE))  # noqa: S307 - generated from our own AST


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
    the ufunc, while the arithmetic that follows stays on Python floats.
    Only `exp` takes it: numpy's vectorized `exp` and libm's disagree in the
    last bit on a few percent of arguments, so the float march must call
    the ufunc the cells march calls."""
    def f(v):
        return float(ufunc(v))
    return f


def _libm(fn):
    """`fn`, `math.sin` or `math.cos`, on a Python float. numpy's float64
    `sin` and `cos` call libm too (tests/test_symexpr.py checks that they
    give the same bits), so this gives the ufunc's bits without its
    per-call cost. libm raises ValueError only at ±inf, where the ufunc
    gives nan, and so does this."""
    def f(v):
        try:
            return fn(v)
        except ValueError:
            return math.nan
    return f


_FLOAT_NAMESPACE = {"sin": _libm(math.sin), "cos": _libm(math.cos), "exp": _float_valued(np.exp)}


# the numpy ufuncs a march over cells runs for +, -, * and unary -
_UFUNCS = ("add", "subtract", "multiply", "negative")


def _in_place(source: str, cells, outs) -> str:
    """A generated march for cells in which every operation on arrays writes
    into a buffer allocated once per march: the binding of a name writes
    into that name's own buffer, or into the target `outs` gives the name,
    and an unnamed intermediate into a pooled buffer that is reused once its
    operation has read it. A buffer holds cells, or one value (0-d) for a
    transcendental of a scalar such as the dither sin(t), and the literals
    and scalar parameters an operation on arrays takes are 0-d arrays too:
    numpy takes a 0-d array faster than a scalar. A name bound to another
    name's buffer gets a copy in its own, so a later write never changes a
    value that is still read. The operations, and so the bits, are those of
    `source`. `cells` names the parameters and states that hold cells."""
    ufuncs = dict(zip((ast.Add, ast.Sub, ast.Mult, ast.USub), _UFUNCS))
    tree = ast.parse(source)
    make = tree.body[0]
    f = make.body[0]
    params = {a.arg for a in make.args.args}
    # what each name holds: the shape source of its array ("_shape" for
    # cells, "()" for one value), absent for a Python scalar
    kinds = dict.fromkeys(cells, "_shape")
    owned = set()                   # names bound to their own buffer
    named, buffers, free, consts, setup = {}, [], {"_shape": [], "()": []}, {}, []

    def load(name):
        return ast.Name(name, ast.Load())

    def allocate(kind):
        buffers.append(f"_b{len(buffers)}")
        setup.append(f"{buffers[-1]} = empty({kind})")
        return buffers[-1]

    def own(name, kind):
        if (name, kind) not in named:
            named[name, kind] = allocate(kind)
        return load(named[name, kind])

    def operand(node):
        literal = isinstance(node, ast.Constant) or isinstance(node, ast.UnaryOp) \
            and isinstance(node.operand, ast.Constant)
        if not literal and not (isinstance(node, ast.Name) and node.id in params
                                and node.id not in kinds):
            return node
        src = ast.unparse(node)    # a literal or a scalar parameter
        if src not in consts:
            consts[src] = f"_c{len(consts)}"
            setup.append(f"{consts[src]} = asarray({src})")
        return load(consts[src])

    def visit(node, out=None):
        """(node, what it holds, the pooled buffer it is in); out(kind) gives
        the node of the buffer an operation on arrays writes into."""
        if isinstance(node, ast.Name):
            return node, kinds.get(node.id), None
        if isinstance(node, ast.NamedExpr):
            node.value = bind(node.target.id, node.value)
            return node, kinds.get(node.target.id), None
        if isinstance(node, ast.BinOp) and type(node.op) in ufuncs:
            ufunc, args = ufuncs[type(node.op)], [node.left, node.right]
        elif isinstance(node, ast.UnaryOp) and type(node.op) in ufuncs:
            ufunc, args = ufuncs[type(node.op)], [node.operand]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _NAMESPACE and not node.keywords:
            ufunc, args = node.func.id, node.args
        else:
            if any(isinstance(n, ast.Name) and n.id in kinds for n in ast.walk(node)):
                raise ExprError(f"a march over cells cannot run {ast.unparse(node)!r} in place")
            return node, None, None
        visited = [visit(a) for a in args]
        held = {kind for _, kind, _ in visited}
        kind = "_shape" if "_shape" in held else "()" if "()" in held \
            or ufunc in _NAMESPACE else None
        if kind is None:
            return node, None, None
        for _, held_kind, buf in visited:
            if buf:
                free[held_kind].append(buf)
        buf = None if out else free[kind].pop() if free[kind] else allocate(kind)
        call = ast.Call(load(ufunc), [*(operand(a) for a, _, _ in visited),
                                      out(kind) if out else load(buf)], [])
        return call, kind, buf

    def bind(name, value):
        """`value` rewritten to be bound to `name`."""
        if isinstance(value, (ast.Name, ast.NamedExpr)):
            value, kind, _ = visit(value)
            source = value.id if isinstance(value, ast.Name) else value.target.id
            in_own = source in owned
            if in_own:
                value = ast.Call(load("positive"), [value, own(name, kind)], [])
        else:
            target = outs.get(name)
            value, kind, _ = visit(value, lambda kind: ast.parse(target, mode="eval").body
                                   if target else own(name, kind))
            in_own = kind is not None and not target
        if kind:
            kinds[name] = kind
        else:
            kinds.pop(name, None)
        (owned.add if in_own else owned.discard)(name)
        return value

    loop = next(st for st in f.body if isinstance(st, ast.For))
    for st in [*f.body[:f.body.index(loop)], *loop.body]:
        if isinstance(st, ast.Assign) and isinstance(st.targets[0], ast.Name):
            st.value = bind(st.targets[0].id, st.value)
    make.args.args.insert(0, ast.arg("_shape"))
    make.body[:0] = ast.parse("\n".join(setup)).body
    return ast.unparse(ast.fix_missing_locations(tree))


@lru_cache(maxsize=None)
def _compile_factory(source: str, flavour: str, cells=(), outs=()):
    """`_make` of a generated source. Flavour "float" runs on Python floats,
    "array" on numpy values of any shape, "cells" on arrays of cells in
    place (`_in_place`, with `cells` and `outs`)."""
    namespace = dict(_FLOAT_NAMESPACE if flavour == "float" else _NAMESPACE,
                     asarray=np.asarray, broadcast_to=np.broadcast_to, empty=np.empty,
                     **{u: getattr(np, u) for u in (*_UFUNCS, "positive")})
    if flavour == "cells":
        source = _in_place(source, cells, dict(outs))
    exec(source, namespace)  # noqa: S102 - generated from our own sources
    return namespace["_make"]


# RK4's stages: the time each is taken at (None: the previous stage's) and the
# step fraction of the previous stage's slope that the state moves by
_STAGES = ((None, None), ("_time + _dt2", "_dt2"), (None, "_dt2"), ("_time + _dt", "_dt"))


class Field:
    """A right-hand side f(t, x) written as Python source, from which both
    f itself and its classical RK4 march are generated.

    `dither` holds (name, source) bindings that read only the time `t`, the
    parameters, the earlier dither names and sin, cos, exp; a march
    computes them once per distinct stage time. `body` holds bindings over
    the state `x0, x1, ...`, the dither names and the parameters, in order,
    and `comps` are the sources of the components of xdot; a march
    computes both at every stage, so a product of dither values and
    parameters belongs in the dither. Parameter values are bound when a
    function is built: floats, or arrays of one shape with one element per
    cell. The generated code runs the sources' operations in one order.
    On floats `sin` and `cos` are libm's, which numpy's float64 ufuncs
    also call, and `exp` is numpy's ufunc, so a float state and an array
    state give the same bits."""

    def __init__(self, comps, body=(), dither=(), **params):
        self.comps = tuple(comps)
        self.body = tuple(body)
        self.dither = tuple(dither)
        self.params = params
        known = {"t", *params, *_NAMESPACE}
        for name, src in self.dither:
            stray = set(compile(src, "<dither>", "eval").co_names) - known
            if stray:
                raise ExprError(f"dither {name!r} reads {sorted(stray)}, not only t and parameters")
            known.add(name)

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
            lines += [f"{name} = {src}" for name, src in self.dither + self.body]
            lines.append("return asarray([" + ", ".join(self.comps) + "])")
            fn = self._rhs = self._build("t, x", lines, (), "array")
        return fn(t, x)

    def rk4(self, dt: float):
        """march(t, y, n) -> (states, t): n classical RK4 steps of size dt
        from time t and state y, with time accumulating by t += dt. A state
        is a tuple with one float, or one array of cells, per component;
        float states need float parameters. On floats, states lists the
        state after each step; on cells, it is a new (n, dim, cells) array
        whose row k is the state after step k + 1, and the march allocates
        nothing per step (`_in_place`).

        The dither is computed once per distinct stage time: stages 2 and 3
        share it, and stage 4's values serve the next step's stage 1, since
        `_time + _dt` there and `_time += _dt` give the same double. The
        body and the components are computed at every stage."""
        n = range(self.dim)
        cells = any(isinstance(v, np.ndarray) for v in self.params.values())
        at_time = [f"{name} = {src}" for name, src in self.dither]
        ys = "".join(f"_y{i}, " for i in n)
        lines = [f"{ys}= _y", f"_states = empty((_n, {self.dim}, *_shape))" if cells
                 else "_states = []", "t = _time", *at_time, "for _j in range(_n):"]
        body = []
        for s, (time, scale) in enumerate(_STAGES, 1):
            if time is not None:
                body += [f"t = {time}", *at_time]
            body += [f"x{i} = _y{i}" if scale is None else f"x{i} = _y{i} + {scale}*_k{s - 1}_{i}"
                     for i in n]
            body += [f"{name} = {src}" for name, src in self.body]
            body += [f"_k{s}_{i} = {c}" for i, c in enumerate(self.comps)]
        body += [f"_y{i} = _y{i} + _dt6*(_k1_{i} + 2.0*_k2_{i} + 2.0*_k3_{i} + _k4_{i})" for i in n]
        body += ["_time += _dt"] + ([] if cells else [f"_states.append(({ys}))"])
        lines += ["    " + line for line in body] + ["return _states, _time"]
        return self._build("_time, _y, _n", lines, (dt, 0.5 * dt, dt / 6.0),
                           "cells" if cells else "float")

    def _build(self, args: str, lines, consts, flavour: str):
        names = ["_dt", "_dt2", "_dt6"][:len(consts)] + list(self.params)
        values = [*consts, *self.params.values()]
        source = (f"def _make({', '.join(names)}):\n    def f({args}):\n"
                  + "".join(f"        {line}\n" for line in lines) + "    return f\n")
        if flavour != "cells":
            return _compile_factory(source, flavour)(*values)
        arrays = {n: v for n, v in zip(names, values) if isinstance(v, np.ndarray)}
        states = tuple(f"_y{i}" for i in range(self.dim))
        outs = tuple((y, f"_states[_j, {i}]") for i, y in enumerate(states))
        make = _compile_factory(source, flavour, tuple(arrays) + states, outs)
        return make(np.broadcast_shapes(*(v.shape for v in arrays.values())), *values)


# ---------------------------------------------------------------------------
# domains and sup-norm scanning

@dataclass(frozen=True)
class Domain:
    """A closed interval of the one state axis that ledgers and scans use,
    held as `intervals = ((lo, hi),)`, the shape `tune.json` prints."""
    intervals: tuple

    def __post_init__(self):
        if len(self.intervals) != 1:
            raise ExprError(f"a domain holds one interval, got {len(self.intervals)}")
        lo, hi = self.intervals[0]
        if not (lo < hi):
            raise ExprError(f"empty interval [{lo}, {hi}]")


def Domain1D(lo: float, hi: float) -> Domain:
    return Domain(((float(lo), float(hi)),))


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_ITERS):
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


def _scan_1d(e: Expr, interval, samples: int, score) -> tuple[float, float]:
    """Best point of score(e(x)) on an interval: dense uniform sampling, then
    golden-section refinement within one grid step of the best sample. The
    refined point is kept if its score is at least the best sample's.
    Samples go _SCAN_CHUNK at a time, with the bits of one array of them.
    Returns (x, score)."""
    lo, hi = interval
    xs = np.linspace(lo, hi, samples)
    i, best = 0, -math.inf
    for start in range(0, samples, _SCAN_CHUNK):
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below, not warned
            vals = score(eval_array(e, [xs[start:start + _SCAN_CHUNK]]))
        if not np.all(np.isfinite(vals)):
            raise EvalOverflowError("non-finite sample during scan")
        k = int(np.argmax(vals))
        if vals[k] > best:  # the first of equal bests, as one argmax picks
            i, best = start + k, float(vals[k])
    spacing = (hi - lo) / (samples - 1)
    fn = compile_expr(e)
    x_ref, v_ref = _golden_max(lambda x: score(float(fn([x]))),
                               max(lo, xs[i] - spacing), min(hi, xs[i] + spacing))
    return (float(x_ref), float(v_ref)) if v_ref >= best else (float(xs[i]), best)


_SCAN_SAMPLES_1D = 20001  # samples of a 1-D scan
_GOLDEN_ITERS = 80  # golden-section steps of a scan's refinement
_SCAN_CHUNK = 1 << 11  # samples a scan evaluates at once


def scan_supnorm(e: Expr, dom: Domain) -> float:
    """Approximate sup |e| on a 1-D domain: dense uniform sampling followed by
    local golden-section refinement around the best sample. The result is a
    lower bound on the true sup."""
    return _scan_1d(e, dom.intervals[0], _SCAN_SAMPLES_1D, abs)[1]


def scan_argmin(e: Expr, dom: Domain) -> tuple:
    """Location of the minimum of e on a 1-D domain (dense scan + refinement)."""
    return (_scan_1d(e, dom.intervals[0], _SCAN_SAMPLES_1D, lambda v: -v)[0],)

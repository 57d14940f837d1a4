"""Algebra for periodically forced graded fields.

Time dependence is restricted to finite trigonometric polynomials of the
base dither frequency (period 2*pi in scaled time); the class is closed
under products, differentiation and zero-mean antiderivatives, which makes
time averaging exact at the coefficient level.

A field is a sum of separable terms eps^i * space(x) * trig(t); the Lie
operators D_w and L_w act termwise, and their exponential series are
summed one eps degree at a time in a Lie triangle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .symexpr import (
    Expr,
    ZERO,
    add,
    compile_exprs,
    differentiate,
    is_zero,
    mul,
    neg,
)


class FieldError(Exception):
    pass


class HarmonicOverflowError(FieldError):
    """A trig product exceeded the configured harmonic cap."""


class DimensionMismatchError(FieldError):
    pass


# ---------------------------------------------------------------------------
# trigonometric polynomials

@dataclass(frozen=True)
class TrigPoly:
    """c0 + sum_k a_k cos(kt) + b_k sin(kt), trailing zero harmonics trimmed."""
    c0: float
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def __post_init__(self):
        a = list(self.cos_coeffs)
        b = list(self.sin_coeffs)
        k = max(len(a), len(b))
        a += [0.0] * (k - len(a))
        b += [0.0] * (k - len(b))
        while k and a[k - 1] == 0.0 and b[k - 1] == 0.0:
            k -= 1
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "cos_coeffs", tuple(float(v) for v in a[:k]))
        object.__setattr__(self, "sin_coeffs", tuple(float(v) for v in b[:k]))

    # -- constructors
    @classmethod
    def constant(cls, c: float) -> "TrigPoly":
        return cls(c)

    @classmethod
    def cosine(cls, harmonic: int = 1, amplitude: float = 1.0) -> "TrigPoly":
        a = [0.0] * harmonic
        a[harmonic - 1] = amplitude
        return cls(0.0, tuple(a), ())

    @classmethod
    def sine(cls, harmonic: int = 1, amplitude: float = 1.0) -> "TrigPoly":
        b = [0.0] * harmonic
        b[harmonic - 1] = amplitude
        return cls(0.0, (), tuple(b))

    # -- structure
    @property
    def max_harmonic(self) -> int:
        return len(self.cos_coeffs)

    @property
    def is_zero(self) -> bool:
        return self.c0 == 0.0 and not self.cos_coeffs

    @property
    def mean(self) -> float:
        return self.c0

    # -- arithmetic
    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        k = max(self.max_harmonic, other.max_harmonic)
        a = [0.0] * k
        b = [0.0] * k
        for src in (self, other):
            for i, v in enumerate(src.cos_coeffs):
                a[i] += v
            for i, v in enumerate(src.sin_coeffs):
                b[i] += v
        return TrigPoly(self.c0 + other.c0, tuple(a), tuple(b))

    def scale(self, c: float) -> "TrigPoly":
        c = float(c)
        return TrigPoly(self.c0 * c,
                        tuple(v * c for v in self.cos_coeffs),
                        tuple(v * c for v in self.sin_coeffs))

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        """Exact product via product-to-sum identities; K <= K1 + K2."""
        k_out = self.max_harmonic + other.max_harmonic
        c0 = self.c0 * other.c0
        a = [0.0] * k_out
        b = [0.0] * k_out

        def acc_cos(m: int, v: float):
            nonlocal c0
            if v == 0.0:
                return
            if m == 0:
                c0 += v
            else:
                a[abs(m) - 1] += v

        def acc_sin(m: int, v: float):
            if v == 0.0 or m == 0:
                return
            if m > 0:
                b[m - 1] += v
            else:
                b[-m - 1] -= v

        for i, ai in enumerate(self.cos_coeffs):
            if ai:
                acc_cos(i + 1, ai * other.c0)
        for i, bi in enumerate(self.sin_coeffs):
            if bi:
                acc_sin(i + 1, bi * other.c0)
        for j, aj in enumerate(other.cos_coeffs):
            if aj:
                acc_cos(j + 1, aj * self.c0)
        for j, bj in enumerate(other.sin_coeffs):
            if bj:
                acc_sin(j + 1, bj * self.c0)
        for i, ai in enumerate(self.cos_coeffs):
            if ai == 0.0 and self.sin_coeffs[i] == 0.0:
                continue
            bi = self.sin_coeffs[i]
            for j, aj in enumerate(other.cos_coeffs):
                bj = other.sin_coeffs[j]
                p, m = i + j + 2, (i + 1) - (j + 1)
                if ai and aj:  # cos*cos
                    acc_cos(m, 0.5 * ai * aj)
                    acc_cos(p, 0.5 * ai * aj)
                if bi and bj:  # sin*sin
                    acc_cos(m, 0.5 * bi * bj)
                    acc_cos(p, -0.5 * bi * bj)
                if bi and aj:  # sin(i)*cos(j)
                    acc_sin(p, 0.5 * bi * aj)
                    acc_sin(m, 0.5 * bi * aj)
                if ai and bj:  # cos(i)*sin(j)
                    acc_sin(p, 0.5 * ai * bj)
                    acc_sin(-m, 0.5 * ai * bj)
        return TrigPoly(c0, tuple(a), tuple(b))

    # -- calculus
    def ddt(self) -> "TrigPoly":
        k = self.max_harmonic
        a = [0.0] * k
        b = [0.0] * k
        for i in range(k):
            # d/dt [a cos(kt)] = -a k sin(kt); d/dt [b sin(kt)] = b k cos(kt)
            a[i] = self.sin_coeffs[i] * (i + 1)
            b[i] = -self.cos_coeffs[i] * (i + 1)
        return TrigPoly(0.0, tuple(a), tuple(b))

    def antiderivative(self) -> "TrigPoly":
        """Zero-mean antiderivative of the zero-mean part (c0 is ignored)."""
        k = self.max_harmonic
        a = [0.0] * k
        b = [0.0] * k
        for i in range(k):
            b[i] = self.cos_coeffs[i] / (i + 1)
            a[i] = -self.sin_coeffs[i] / (i + 1)
        return TrigPoly(0.0, tuple(a), tuple(b))

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.c0)
        for i in range(self.max_harmonic):
            if self.cos_coeffs[i]:
                out = out + self.cos_coeffs[i] * np.cos((i + 1) * t)
            if self.sin_coeffs[i]:
                out = out + self.sin_coeffs[i] * np.sin((i + 1) * t)
        return float(out) if out.ndim == 0 else out

    def __str__(self) -> str:
        parts = [repr(self.c0)]
        for i in range(self.max_harmonic):
            if self.cos_coeffs[i]:
                parts.append(f"{self.cos_coeffs[i]!r}*cos({i + 1}t)")
            if self.sin_coeffs[i]:
                parts.append(f"{self.sin_coeffs[i]!r}*sin({i + 1}t)")
        return " + ".join(parts)


def trig_power(p: TrigPoly, k: int) -> TrigPoly:
    out = TrigPoly.constant(1.0)
    for _ in range(k):
        out = out * p
    return out


# ---------------------------------------------------------------------------
# separable terms and graded fields

@dataclass(frozen=True)
class SeparableTerm:
    """One field contribution eps^degree * space(x) * time(t)."""
    space: tuple  # tuple[Expr], one per state dimension
    time: TrigPoly
    eps_degree: int

    def __post_init__(self):
        if self.eps_degree < 1:
            raise FieldError("eps degree must be >= 1")


def unit_term(dim: int, component: int, expr: Expr, time: TrigPoly, degree: int) -> SeparableTerm:
    space = tuple(expr if c == component else ZERO for c in range(dim))
    return SeparableTerm(space, time, degree)


@dataclass(frozen=True)
class GradedField:
    """eps-graded, separable, 2*pi-periodic vector field, truncated at max_order."""
    dim: int
    max_order: int
    terms: tuple = ()

    @classmethod
    def build(cls, dim: int, max_order: int, terms) -> "GradedField":
        cap = 4 * max_order
        merged: dict = {}
        for t in terms:
            if len(t.space) != dim:
                raise DimensionMismatchError(
                    f"term of dim {len(t.space)} in field of dim {dim}")
            if t.eps_degree > max_order:
                continue  # explicit truncation
            if t.time.is_zero or all(is_zero(e) for e in t.space):
                continue
            key = (t.eps_degree, t.space)
            merged[key] = merged[key] + t.time if key in merged else t.time
        out = []
        for (deg, space), trig in merged.items():
            if trig.is_zero:
                continue
            if trig.max_harmonic > cap:
                raise HarmonicOverflowError(
                    f"harmonic {trig.max_harmonic} exceeds cap {cap} at degree {deg}")
            out.append(SeparableTerm(space, trig, deg))
        out.sort(key=lambda s: (s.eps_degree, tuple(str(e) for e in s.space)))
        return cls(dim, max_order, tuple(out))

    @classmethod
    def zero(cls, dim: int, max_order: int) -> "GradedField":
        return cls(dim, max_order)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "GradedField") -> "GradedField":
        if other.dim != self.dim:
            raise DimensionMismatchError("field dims differ")
        order = min(self.max_order, other.max_order)
        return GradedField.build(self.dim, order, self.terms + other.terms)

    def map_time(self, fn) -> "GradedField":
        """The field with each term's time factor replaced by fn(time). Its
        keys (degree, space) and their order stay those of this built field,
        so zero terms are dropped and nothing is merged or sorted."""
        return GradedField(self.dim, self.max_order, tuple(
            SeparableTerm(t.space, trig, t.eps_degree)
            for t in self.terms if not (trig := fn(t.time)).is_zero))

    def scale(self, c: float) -> "GradedField":
        """c times the field, term by term (`map_time`: no merge, no sort)."""
        return self.map_time(lambda trig: trig.scale(c))

    def degree_part(self, degree: int) -> "GradedField":
        """The terms of one eps degree, kept in order without a merge."""
        return GradedField(self.dim, self.max_order,
                           tuple(t for t in self.terms if t.eps_degree == degree))

    def degrees(self) -> tuple:
        return tuple(sorted({t.eps_degree for t in self.terms}))

    def ddt(self) -> "GradedField":
        """The time derivative, term by term (`map_time`: no merge, no sort)."""
        return self.map_time(TrigPoly.ddt)

    def eval(self, y, t, eps: float, base=None) -> np.ndarray:
        """Numeric value sum_terms eps^deg * space(y) * time(t), at one point
        (y of shape (dim,), scalar t; returns (dim,)) or for a batch (y of
        shape (n, dim), t of shape (n,) or scalar; returns (n, dim)). The sum
        is added in place into `base` if one is given, else into zeros, term
        by term in order. One generated function (`compile_exprs`) gives
        the values of all the nonzero space components, so a subtree shared
        by several terms runs once."""
        ys = np.atleast_2d(np.asarray(y, dtype=float))
        out = np.zeros(ys.shape) if base is None else np.atleast_2d(base)
        space = tuple(e for term in self.terms for e in term.space if not is_zero(e))
        values = iter(compile_exprs(space)([ys[:, d] for d in range(self.dim)]))
        for term in self.terms:
            tv = eps ** term.eps_degree * term.time.eval(t)
            for c in range(self.dim):
                if not is_zero(term.space[c]):
                    out[:, c] += tv * next(values)
        return out[0] if np.ndim(y) == 1 else out

    def debug_lines(self) -> list[str]:
        return [f"eps^{t.eps_degree} * [{', '.join(str(e) for e in t.space)}] * ({t.time})"
                for t in self.terms]


# ---------------------------------------------------------------------------
# Lie operators

def derivative_component(ws: tuple, vs: tuple, c: int):
    """Component c of D_w v = (grad v_c) . w, or None."""
    pieces = []
    for d in range(len(ws)):
        dc = ZERO if is_zero(ws[d]) else differentiate(vs[c], d)
        if not is_zero(dc):
            pieces.append(mul(dc, ws[d]))
    return add(*pieces) if pieces else None


def bracket_component(ws: tuple, fs: tuple, c: int):
    """Component c of L_w f = (grad f_c) . w - (grad w_c) . f, or None."""
    pieces = []
    for d in range(len(ws)):
        dfc = ZERO if is_zero(ws[d]) else differentiate(fs[c], d)
        if not is_zero(dfc):
            pieces.append(mul(dfc, ws[d]))
        dwc = ZERO if is_zero(fs[d]) else differentiate(ws[c], d)
        if not is_zero(dwc):
            pieces.append(neg(mul(dwc, fs[d])))
    return add(*pieces) if pieces else None


def _op_terms(component, w: GradedField, v: GradedField, trunc_order: int) -> list:
    """The terms of op_w v: each term of v paired with each term of w, in
    that order; eps degrees add."""
    if w.dim != v.dim:
        raise DimensionMismatchError("field dims differ")
    terms = []
    for tv in v.terms:
        for tw in w.terms:
            deg = tv.eps_degree + tw.eps_degree
            if deg > trunc_order:
                continue
            trig = tv.time * tw.time
            if trig.is_zero:
                continue
            for c in range(w.dim):
                expr = component(tw.space, tv.space, c)
                if expr is not None:
                    terms.append(unit_term(w.dim, c, expr, trig, deg))
    return terms


def lie_bracket(w: GradedField, f: GradedField, trunc_order: int) -> GradedField:
    """L_w f = (grad f) . w - (grad w) . f, truncated in eps degree."""
    return GradedField.build(w.dim, trunc_order,
                             _op_terms(bracket_component, w, f, trunc_order))


def degree_parts(f: GradedField, trunc_order: int) -> dict:
    """{d: degree-d part of f, of max order trunc_order} for d = 1..trunc_order."""
    return {d: GradedField(f.dim, trunc_order, f.degree_part(d).terms)
            for d in range(1, trunc_order + 1)}


class LieTriangle:
    """The Lie series exp(op_w) of a generator w, one eps degree at a time
    (Deprit's triangle). `w` and each row map a degree d to a degree-d part,

        rows[k][d] = sum_{j<d} op_{w_j}(rows[k-1][d-j]),   k >= 1,

    built from lower degrees only, so each bracket is taken once. The
    series' degree-d part is sum_k rows[k][d] / (k+1)!. Callers go up one
    degree at a time: part(d) builds the rows of degree d from the rows
    that the calls for lower degrees built, and from rows[0] below d.

    The same pair of space tuples recurs across rows and degrees, so
    `component` answers from a memo that the triangle owns: each distinct
    (w space, v space, c) is differentiated, multiplied and printed once per
    triangle, and every repeat gets the same Expr. Nothing outlives it."""

    def __init__(self, component, w: dict, rows0: dict, dim: int, max_order: int):
        self._component, self.w, self.dim, self.max_order = component, w, dim, max_order
        self.rows = defaultdict(dict, {0: rows0})
        self.memo: dict = {}

    def component(self, ws: tuple, vs: tuple, c: int):
        key = (ws, vs, c)
        try:
            return self.memo[key]
        except KeyError:
            expr = self.memo[key] = self._component(ws, vs, c)
            return expr

    def apply(self, row: dict, d: int) -> GradedField:
        """Degree-d part of op_w(row), its pairs taken in the order
        lie_bracket takes those of whole fields, so sums keep their bits."""
        terms = []
        for m in range(1, d):
            if m in row:
                terms += _op_terms(self.component, self.w[d - m], row[m], d)
        return GradedField.build(self.dim, self.max_order, terms)

    def part(self, d: int, first: GradedField) -> GradedField:
        """first + sum_{k>=1} rows[k][d] / (k+1)!, in one build that sums
        each key in order of k."""
        terms = []
        fact = 1.0
        for k in range(1, d):
            if d not in self.rows[k]:
                self.rows[k][d] = self.apply(self.rows[k - 1], d)
            fact *= k + 1
            terms += self.rows[k][d].scale(1.0 / fact).terms
        if not terms:
            return first
        return GradedField.build(self.dim, self.max_order, first.terms + tuple(terms))

    def series(self, first) -> GradedField:
        """The whole series up to max_order, `first(d)` giving each k = 0 term."""
        terms = []
        for d in range(1, self.max_order + 1):
            terms += self.part(d, first(d)).terms
        return GradedField.build(self.dim, self.max_order, terms)


def exp_operator_apply(w: GradedField, f: GradedField, trunc_order: int) -> GradedField:
    """The field f transformed by the near-identity map that w generates,
    f + A + L_w A / 2! + L_w^2 A / 3! + ... with A = L_w f - dw/dt; each L_w
    raises the eps degree, so the series terminates under truncation."""
    if w.dim != f.dim:
        raise DimensionMismatchError("field dims differ")
    fs = degree_parts(f, trunc_order)
    tri = LieTriangle(bracket_component, degree_parts(w, trunc_order), {}, w.dim, trunc_order)

    def first(d):
        tri.rows[0][d] = tri.apply(fs, d).add(tri.w[d].ddt().scale(-1.0))
        return fs[d].add(tri.rows[0][d])
    return tri.series(first)


def transform_part(w: GradedField, trunc_order: int) -> GradedField:
    """The non-identity part of the near-identity map that w generates:
    U - id = w + D_w w / 2! + D_w^2 w / 3! + ..."""
    ws = degree_parts(w, trunc_order)
    return LieTriangle(derivative_component, ws, ws, w.dim, trunc_order).series(ws.get)

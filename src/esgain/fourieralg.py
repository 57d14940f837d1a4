"""Algebra for periodically forced graded fields.

Time dependence is restricted to finite trigonometric polynomials of the
base dither frequency (period 2*pi in scaled time); the class is closed
under products, differentiation and zero-mean antiderivatives, which makes
time averaging exact at the coefficient level.

A field is a sum of separable terms eps^i * space(x) * trig(t); the Lie
operators D_w, L_w and the time-shifted bracket act termwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symexpr import (
    Const,
    Expr,
    ZERO,
    add,
    compile_expr,
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
    def zero(cls) -> "TrigPoly":
        return cls(0.0)

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
    def is_constant(self) -> bool:
        return not self.cos_coeffs

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

    def __neg__(self) -> "TrigPoly":
        return self.scale(-1.0)

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

def _space_is_zero(space: tuple) -> bool:
    return all(is_zero(e) for e in space)


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
            if t.time.is_zero or _space_is_zero(t.space):
                continue
            key = (t.eps_degree, t.space)
            if key in merged:
                merged[key] = merged[key] + t.time
            else:
                merged[key] = t.time
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

    def scale(self, c: float) -> "GradedField":
        return GradedField.build(
            self.dim, self.max_order,
            [SeparableTerm(t.space, t.time.scale(c), t.eps_degree) for t in self.terms])

    def degree_part(self, degree: int) -> "GradedField":
        return GradedField.build(
            self.dim, self.max_order,
            [t for t in self.terms if t.eps_degree == degree])

    def degrees(self) -> tuple:
        return tuple(sorted({t.eps_degree for t in self.terms}))

    def ddt(self) -> "GradedField":
        return GradedField.build(
            self.dim, self.max_order,
            [SeparableTerm(t.space, t.time.ddt(), t.eps_degree) for t in self.terms])

    def eval(self, y, t, eps: float, base=None) -> np.ndarray:
        """Numeric value sum_terms eps^deg * space(y) * time(t), at one point
        (y of shape (dim,), scalar t; returns (dim,)) or for a batch (y of
        shape (n, dim), t of shape (n,) or scalar; returns (n, dim)). The sum
        is added in place into `base` if one is given, else into zeros."""
        ys = np.atleast_2d(np.asarray(y, dtype=float))
        out = np.zeros(ys.shape) if base is None else np.atleast_2d(base)
        axes = [ys[:, d] for d in range(self.dim)]
        for term in self.terms:
            tv = eps ** term.eps_degree * term.time.eval(t)
            for c in range(self.dim):
                if not is_zero(term.space[c]):
                    out[:, c] += tv * compile_expr(term.space[c])(axes)
        return out[0] if np.ndim(y) == 1 else out

    def debug_lines(self) -> list[str]:
        lines = []
        for t in self.terms:
            vec = ", ".join(str(e) for e in t.space)
            lines.append(f"eps^{t.eps_degree} * [{vec}] * ({t.time})")
        return lines


# ---------------------------------------------------------------------------
# Lie operators

def directional_derivative(w: GradedField, v: GradedField, trunc_order: int) -> GradedField:
    """D_w v, componentwise (grad v_c) . w; eps degrees add."""
    if w.dim != v.dim:
        raise DimensionMismatchError("field dims differ")
    dim = w.dim
    terms = []
    for tv in v.terms:
        for tw in w.terms:
            deg = tv.eps_degree + tw.eps_degree
            if deg > trunc_order:
                continue
            trig = tv.time * tw.time
            if trig.is_zero:
                continue
            for c in range(dim):
                if is_zero(tv.space[c]):
                    continue
                pieces = []
                for d in range(dim):
                    if is_zero(tw.space[d]):
                        continue
                    dc = differentiate(tv.space[c], d)
                    if not is_zero(dc):
                        pieces.append(mul(dc, tw.space[d]))
                if pieces:
                    terms.append(unit_term(dim, c, add(*pieces), trig, deg))
    return GradedField.build(dim, trunc_order, terms)


def lie_bracket(w: GradedField, f: GradedField, trunc_order: int) -> GradedField:
    """L_w f = (grad f) . w - (grad w) . f, truncated in eps degree."""
    if w.dim != f.dim:
        raise DimensionMismatchError("field dims differ")
    dim = w.dim
    terms = []
    for tf in f.terms:
        for tw in w.terms:
            deg = tf.eps_degree + tw.eps_degree
            if deg > trunc_order:
                continue
            trig = tf.time * tw.time
            if trig.is_zero:
                continue
            for c in range(dim):
                pieces = []
                for d in range(dim):
                    if not is_zero(tw.space[d]):
                        dfc = differentiate(tf.space[c], d)
                        if not is_zero(dfc):
                            pieces.append(mul(dfc, tw.space[d]))
                    if not is_zero(tf.space[d]):
                        dwc = differentiate(tw.space[c], d)
                        if not is_zero(dwc):
                            pieces.append(neg(mul(dwc, tf.space[d])))
                if pieces:
                    expr = add(*pieces)
                    if not is_zero(expr):
                        terms.append(unit_term(dim, c, expr, trig, deg))
    return GradedField.build(dim, trunc_order, terms)


def shifted_bracket(w: GradedField, f: GradedField, trunc_order: int) -> GradedField:
    """The non-autonomous bracket: L_w f - dw/dt."""
    return lie_bracket(w, f, trunc_order).add(w.ddt().scale(-1.0))


def exp_operator_apply(w: GradedField, target, trunc_order: int) -> GradedField:
    """Truncated exponential of the Lie operator generated by w.

    target "identity": returns the non-identity transform part
        U - id = w + D_w w / 2! + D_w^2 w / 3! + ...
    target a GradedField f: returns the transformed field
        f + A + L_w A / 2! + L_w^2 A / 3! + ...   with A = L_w f - dw/dt.

    Since every application of an operator built from w raises the eps
    degree by at least one, the series terminates under truncation.
    """
    if isinstance(target, str) and target == "identity":
        return _exp_series(
            GradedField.zero(w.dim, trunc_order),
            GradedField.build(w.dim, trunc_order, w.terms),
            lambda v: directional_derivative(w, v, trunc_order), trunc_order)
    f: GradedField = target
    if w.dim != f.dim:
        raise DimensionMismatchError("field dims differ")
    return _exp_series(
        GradedField.build(f.dim, trunc_order, f.terms),
        shifted_bracket(w, f, trunc_order),
        lambda v: lie_bracket(w, v, trunc_order), trunc_order)


def _exp_series(out: GradedField, term: GradedField, op, trunc_order: int) -> GradedField:
    """out + term + op(term) / 2! + op^2(term) / 3! + ..., at most
    trunc_order + 2 terms; each op raises the eps degree by at least one."""
    fact = 1.0
    for q in range(2, trunc_order + 4):
        if term.is_zero:
            break
        out = out.add(term.scale(1.0 / fact))
        fact *= q
        term = op(term)
    return out

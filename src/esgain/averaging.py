"""Order-n averaging engine for eps-graded, periodically forced fields.

Produces autonomous averaged dynamics g_1..g_n, periodic generators
w_1..w_n, and the non-identity transform terms u_1..u_n, together with a
numeric certificate that the residual non-autonomy scales like eps^(n+1).
The transform (w and u) is built on its first read, so callers that need
only g skip its largest parts.
Order i is summed from Lie-triangle rows of the lower orders (Deprit 1969),
so each bracket is taken once. On the basic scheme at a = 1, g_4 is exactly
c1 p + c3 p^3 and u_2 exactly c1 p + c2 p^2 in the fine-tuning factor p, so
`metaopt.RemainderTables` reads both from two engine runs.

The free constant at each order admits three conventions:
  "u-zero-mean"  : constants chosen so each transform term u_i has zero
                   time mean (the period average of x equals y); default.
  "w-zero-mean"  : each generator w_i is the plain zero-mean antiderivative;
                   this is the convention whose averaged coefficients match
                   the closed-form reference systems in the scheme catalog.
  "match-at-t0"  : constants chosen so u_i(y, 0) = 0 (x = y at t = 0 mod T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .fourieralg import (
    GradedField,
    LieTriangle,
    SeparableTerm,
    TrigPoly,
    bracket_component,
    degree_parts,
    derivative_component,
)
from .symexpr import Const, add, differentiate, is_zero, mul

CONVENTIONS = ("u-zero-mean", "w-zero-mean", "match-at-t0")
_TERM_CAP = 20000  # terms of one degree's transformed field before averaging gives up


class AveragingError(Exception):
    pass


class TermExplosionError(AveragingError):
    def __init__(self, degree: int, count: int, cap: int):
        super().__init__(f"{count} terms at degree {degree} exceed cap {cap}")
        self.degree = degree


class ResidualPreconditionError(AveragingError):
    """Transform Jacobian near-singular at a sample point."""


@dataclass(frozen=True)
class AveragingResult:
    """The averaged dynamics g of `average` and the near-identity transform
    x = y + sum_i eps^i u_i(y, t) back to the original coordinates.

    g is built with the result. The transform, w (the full generator,
    2*pi-periodic by construction) and u (u[i-1]: a GradedField holding only
    the degree-i transform terms), is built on the first read of either, by
    the closure `average` leaves in `build_transform`. That read drops the
    closure and the Lie triangle it holds."""
    order: int
    dim: int
    g: tuple          # g[i-1]: tuple[Expr] per component, autonomous
    convention: str
    build_transform: Callable | None = field(repr=False, compare=False)
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def _transform(self) -> tuple:
        w, u = self.build_transform()
        object.__setattr__(self, "build_transform", None)
        return w, u

    @property
    def w(self) -> GradedField:
        return self._transform[0]

    @property
    def u(self) -> tuple:
        return self._transform[1]

    def g_exprs(self, degree: int) -> tuple:
        return self.g[degree - 1]

    @property
    def g_field(self) -> GradedField:
        """The averaged dynamics sum_i eps^i g_i as a time-constant field."""
        one = TrigPoly.constant(1.0)
        return GradedField.build(self.dim, self.order,
                                 [SeparableTerm(comps, one, i)
                                  for i, comps in enumerate(self.g, start=1)])


def _mean_exprs(f: GradedField) -> tuple:
    """The time mean of f as one Expr per component."""
    comps = []
    for c in range(f.dim):
        pieces = [mul(Const(t.time.mean), t.space[c]) for t in f.terms
                  if not is_zero(t.space[c]) and t.time.mean != 0.0]
        comps.append(add(*pieces) if pieces else Const(0.0))
    return tuple(comps)


def average(f: GradedField, n: int, convention: str = "u-zero-mean") -> AveragingResult:
    """Run the averaging recursion up to order n, one eps degree at a time.

    Two Lie triangles share the generator's parts w_j: the rows of exp(L_w)
    on L_w f - dw/dt and of exp(D_w) on w. At degree i the rows of lower
    degree give e_i, the degree-i part of the transformed field. Its mean
    is g_i; the antiderivative of its oscillation is w_i, less the time
    constant the convention reads off u_i. Below degree n that w_i completes
    the degree-i first rows that higher degrees read. The top-degree w_n and
    the transform parts u_i, each summed again with its final w_i first, are
    left to the result's first read of w or u."""
    if convention not in CONVENTIONS:
        raise AveragingError(f"unknown convention {convention!r}")
    if not 1 <= n <= f.max_order:
        raise AveragingError(f"order {n} outside 1..{f.max_order}")
    dim = f.dim
    fs = degree_parts(f, n)
    w: dict = {}
    f_tri = LieTriangle(bracket_component, w, {}, dim, n)   # exp(L_w) on L_w f - dw/dt
    u_tri = LieTriangle(derivative_component, w, w, dim, n)  # exp(D_w) on w

    def set_generator(i: int, e_i: GradedField) -> None:
        w_i = e_i.map_time(TrigPoly.antiderivative)
        if convention != "w-zero-mean":
            u_i = u_tri.part(i, w_i)
            if convention == "u-zero-mean":
                offset = u_i.map_time(lambda trig: TrigPoly.constant(-trig.mean))
            else:
                offset = u_i.map_time(lambda trig: TrigPoly.constant(-trig.eval(0.0)))
            w_i = w_i.add(offset)
        w[i] = w_i

    g_list, term_counts = [], {}
    for i in range(1, n + 1):
        lf = f_tri.apply(fs, i)  # L_w f at degree i; w_i is not known yet
        e_i = f_tri.part(i, fs[i].add(lf))
        if len(e_i.terms) > _TERM_CAP:
            raise TermExplosionError(i, len(e_i.terms), _TERM_CAP)
        g_list.append(_mean_exprs(e_i))
        term_counts[i] = len(e_i.terms)
        if i < n:
            set_generator(i, e_i)
            f_tri.rows[0][i] = lf.add(w[i].ddt().scale(-1.0))

    e_n = e_i

    def build_transform() -> tuple:
        set_generator(n, e_n)
        u = tuple(u_tri.part(i, w[i]) for i in range(1, n + 1))
        return GradedField.build(dim, n, [t for part in w.values() for t in part.terms]), u

    return AveragingResult(order=n, dim=dim, g=tuple(g_list), convention=convention,
                           build_transform=build_transform,
                           diagnostics={"term_counts": term_counts})


# ---------------------------------------------------------------------------
# transform evaluation and the finite-order remainder certificate

def transform_points(result: AveragingResult, ys: np.ndarray, ts: np.ndarray,
                     eps: float) -> np.ndarray:
    """x = y + sum_i eps^i u_i(y, t), vectorized over matched arrays of
    states (n, dim) and times (n,)."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    out = ys.copy()
    for ui in result.u:
        ui.eval(ys, ts, eps, out)
    return out


@dataclass(frozen=True)
class ResidualReport:
    eps_values: tuple
    sup_residuals: tuple
    exponent: float
    sample_count: int


# multipliers of the residual's sample lattice, one per state axis and one
# for time; past the first three come fractional parts of sqrt(q) for primes
# q, without 5, whose root is affine in the golden ratio
_LATTICE = (0.6180339887498949, 0.7548776662466927, 0.5698402909980532)
_PRIMES = (2, 3, 7, 11, 13, 17, 19, 23, 29, 31)


def _cofactor(m, i: int, j: int):
    """(i, j) cofactor of a matrix of sample arrays, elementwise: no LAPACK."""
    minor = [r[:j] + r[j + 1:] for k, r in enumerate(m) if k != i]
    det = sum(minor[0][c] * _cofactor(minor, 0, c) for c in range(len(minor))) if minor else 1.0
    return (-1.0) ** (i + j) * det


def autonomy_residual(f: GradedField, result: AveragingResult, eps_list,
                      samples, cond_threshold: float = 1e6) -> ResidualReport:
    """Evaluate r = (dU/dy)^-1 (f(U(y,t),t) - dU/dt) - sum eps^i g_i(y) over
    samples and fit the scaling exponent of sup|r| against eps.

    Contract: the fitted exponent is close to order + 1.

    `samples` is either an iterable of (state, time) pairs or an integer
    count, in which case a deterministic low-discrepancy cloud over
    [-0.9, 0.9]^dim x [0, 2 pi) is used. Cramer's rule solves each Jacobian
    system; a 1-norm condition number (inf if singular) past `cond_threshold`
    is refused. The exponent is nan below two distinct eps with sup > 0.
    """
    eps_list = [float(e) for e in eps_list]
    if not all(math.isfinite(e) and e > 0.0 for e in eps_list):
        raise AveragingError(f"eps values must be finite and positive, got {eps_list}")
    dim = result.dim
    if isinstance(samples, int):
        k = np.arange(samples, dtype=float)
        # golden-ratio lattice: uniform, deterministic, no axis alignment
        phis = _LATTICE + tuple(math.sqrt(q) % 1.0 for q in _PRIMES[:max(0, dim - 2)])
        ys = np.stack([-0.9 + 1.8 * ((k * phis[d]) % 1.0) for d in range(dim)], axis=1)
        ts = 2.0 * math.pi * ((k * phis[dim]) % 1.0)
    else:
        samples = list(samples)
        ys = np.array([[float(v) for v in y] for y, _ in samples]).reshape(-1, dim)
        ts = np.array([float(t) for _, t in samples])
    u = GradedField.build(dim, result.order, [term for ui in result.u for term in ui.terms])
    du_dt = u.ddt()
    # column d of dU/dy: the fields d u_c / d y_d
    jac_cols = [GradedField.build(dim, result.order, [
        SeparableTerm(tuple(differentiate(e, d) for e in term.space), term.time, term.eps_degree)
        for term in u.terms]) for d in range(dim)]
    g = result.g_field
    sups = []
    for eps in eps_list:
        cols = [col.eval(ys, ts, eps) for col in jac_cols]
        jac = [[cols[j][:, i] + float(i == j) for j in range(dim)] for i in range(dim)]
        adj = [[_cofactor(jac, i, j) for i in range(dim)] for j in range(dim)]
        det = sum(jac[0][j] * adj[j][0] for j in range(dim))
        norm1 = [np.maximum.reduce([sum(abs(r[j]) for r in a) for j in range(dim)])
                 for a in (jac, adj)]  # the largest column sums of |a_ij|
        cond = np.divide(norm1[0] * norm1[1], np.abs(det), where=det != 0.0,
                         out=np.full(det.shape, math.inf))
        if (bad := np.flatnonzero(cond > cond_threshold)).size:
            i = bad[0]
            raise ResidualPreconditionError(
                f"transform Jacobian ill-conditioned at y={ys[i].tolist()}, "
                f"t={float(ts[i])}, eps={eps}")
        rhs = f.eval(ys + u.eval(ys, ts, eps), ts, eps) - du_dt.eval(ys, ts, eps)
        x = [sum(adj[j][i] * rhs[:, i] for i in range(dim)) / det for j in range(dim)]
        r = np.stack(x, axis=1) - g.eval(ys, ts, eps)
        sups.append(float(np.max(np.abs(r))))
    good = np.array(sups) > 0.0
    log_eps, log_sup = np.log(np.array(eps_list)[good]), np.log(np.array(sups)[good])
    if not np.any(sups):
        exponent = math.inf  # exactly autonomous (e.g. the zero field)
    elif len(set(log_eps.tolist())) < 2:  # not np.unique, which imports numpy.ma
        exponent = math.nan
    else:  # the least-squares slope
        dx = log_eps - log_eps.mean()
        exponent = float((dx * (log_sup - log_sup.mean())).sum() / (dx * dx).sum())
    return ResidualReport(tuple(eps_list), tuple(sups), exponent, len(ts))

"""Order-n averaging engine for eps-graded, periodically forced fields.

Produces autonomous averaged dynamics g_1..g_n, periodic generators
w_1..w_n, and the non-identity transform terms u_1..u_n, together with a
numeric certificate that the residual non-autonomy scales like eps^(n+1).

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

import numpy as np

from .fourieralg import (
    GradedField,
    SeparableTerm,
    TrigPoly,
    exp_operator_apply,
)
from .symexpr import Const, add, differentiate, is_zero, mul

CONVENTIONS = ("u-zero-mean", "w-zero-mean", "match-at-t0")


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
    order: int
    dim: int
    g: tuple          # g[i-1]: tuple[Expr] per component, autonomous
    w: GradedField    # full generator, 2*pi-periodic by construction
    u: tuple          # u[i-1]: GradedField holding only degree-i transform terms
    convention: str
    diagnostics: dict = field(default_factory=dict)

    def g_exprs(self, degree: int) -> tuple:
        return self.g[degree - 1]

    @property
    def g_field(self) -> GradedField:
        """The averaged dynamics sum_i eps^i g_i as a time-constant field."""
        one = TrigPoly.constant(1.0)
        return GradedField.build(self.dim, self.order,
                                 [SeparableTerm(comps, one, i)
                                  for i, comps in enumerate(self.g, start=1)])


def _mean_field(f: GradedField) -> GradedField:
    terms = [SeparableTerm(t.space, TrigPoly.constant(t.time.mean), t.eps_degree)
             for t in f.terms if t.time.mean != 0.0]
    return GradedField.build(f.dim, f.max_order, terms)


def _eval_at_t0_field(f: GradedField) -> GradedField:
    terms = [SeparableTerm(t.space, TrigPoly.constant(float(t.time.eval(0.0))), t.eps_degree)
             for t in f.terms]
    return GradedField.build(f.dim, f.max_order, terms)


def _collapse(f: GradedField) -> tuple:
    """Collapse a time-constant field into one Expr per component."""
    comps = []
    for c in range(f.dim):
        pieces = []
        for t in f.terms:
            if not t.time.is_constant:
                raise AveragingError("internal: collapsing a non-autonomous field")
            if not is_zero(t.space[c]) and t.time.c0 != 0.0:
                pieces.append(mul(Const(t.time.c0), t.space[c]))
        comps.append(add(*pieces) if pieces else Const(0.0))
    return tuple(comps)


def average(f: GradedField, n: int, convention: str = "u-zero-mean",
            term_cap: int = 20000) -> AveragingResult:
    """Run the averaging recursion up to order n.

    At each order i the transformed field is expanded with the generator
    built so far, the degree-i part is split into its time mean (g_i) and
    zero-mean oscillation, and the generator gains the zero-mean
    antiderivative of the oscillation (plus a convention-dependent
    time-constant correction).
    """
    if convention not in CONVENTIONS:
        raise AveragingError(f"unknown convention {convention!r}")
    if not 1 <= n <= f.max_order:
        raise AveragingError(f"order {n} outside 1..{f.max_order}")
    dim = f.dim
    w = GradedField.zero(dim, n)
    g_list: list[tuple] = []
    term_counts: dict[int, int] = {}
    for i in range(1, n + 1):
        transformed = exp_operator_apply(w, f, i)
        e_i = transformed.degree_part(i)
        if len(e_i.terms) > term_cap:
            raise TermExplosionError(i, len(e_i.terms), term_cap)
        g_field = _mean_field(e_i)
        g_list.append(_collapse(g_field))
        osc_terms = []
        for t in e_i.terms:
            trig = t.time + TrigPoly.constant(-t.time.mean)
            if not trig.is_zero:
                osc_terms.append(SeparableTerm(t.space, trig.antiderivative(), i))
        w = w.add(GradedField.build(dim, n, osc_terms))
        if convention != "w-zero-mean":
            u_i = exp_operator_apply(w, "identity", i).degree_part(i)
            offset = _mean_field(u_i) if convention == "u-zero-mean" else _eval_at_t0_field(u_i)
            # rebuild at the full truncation order: add() truncates to the
            # smaller max_order and the correction was computed at order i
            offset = GradedField.build(dim, n, offset.scale(-1.0).terms)
            w = w.add(offset)
        term_counts[i] = len(e_i.terms)

    u_full = exp_operator_apply(w, "identity", n)
    u_parts = tuple(u_full.degree_part(i) for i in range(1, n + 1))
    mean_residual = {}
    for i, ui in enumerate(u_parts, start=1):
        mean_residual[i] = max((abs(t.time.mean) for t in ui.terms), default=0.0)
    return AveragingResult(
        order=n, dim=dim, g=tuple(g_list), w=w, u=u_parts, convention=convention,
        diagnostics={"term_counts": term_counts, "u_mean_residual": mean_residual},
    )


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


def autonomy_residual(f: GradedField, result: AveragingResult, eps_list,
                      samples, cond_threshold: float = 1e6) -> ResidualReport:
    """Evaluate r = (dU/dy)^-1 (f(U(y,t),t) - dU/dt) - sum eps^i g_i(y) over
    samples and fit the scaling exponent of sup|r| against eps.

    Contract: the fitted exponent is close to order + 1.

    `samples` is either an iterable of (state, time) pairs or an integer
    count, in which case a deterministic low-discrepancy cloud over
    [-0.9, 0.9]^dim x [0, 2 pi) is used.
    """
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
        jac = np.stack([col.eval(ys, ts, eps) for col in jac_cols], axis=2) + np.eye(dim)
        bad = np.flatnonzero(np.linalg.cond(jac) > cond_threshold)
        if bad.size:
            i = bad[0]
            raise ResidualPreconditionError(
                f"transform Jacobian ill-conditioned at y={ys[i].tolist()}, "
                f"t={float(ts[i])}, eps={eps}")
        rhs = f.eval(ys + u.eval(ys, ts, eps), ts, eps) - du_dt.eval(ys, ts, eps)
        r = np.linalg.solve(jac, rhs[..., None])[..., 0] - g.eval(ys, ts, eps)
        sups.append(float(np.max(np.abs(r))))
    eps_arr = np.asarray(list(eps_list), dtype=float)
    sup_arr = np.asarray(sups)
    if np.all(sup_arr == 0.0):
        exponent = math.inf  # exactly autonomous (e.g. the zero field)
    else:
        good = sup_arr > 0.0
        if good.sum() < 2:
            exponent = math.nan
        else:
            exponent = float(np.polyfit(np.log(eps_arr[good]), np.log(sup_arr[good]), 1)[0])
    return ResidualReport(tuple(float(e) for e in eps_list), tuple(sups),
                          exponent, len(ts))

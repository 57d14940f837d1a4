"""Gain-selection solvers: closed forms, monomial-constraint solutions, and
deterministic grid searches under error-budget constraints.

All searches are deterministic (log grids + local re-gridding + bisection
polish); no stochastic optimizers. Remainder magnitudes, where a strategy
needs them, are estimated from the averaging engine's next-order term with
a configurable safety factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .averaging import AveragingResult, average
from .contraction import BoundsLedger, ErrorBudget
from .schemes import SchemeInstance, scheme_graded_field


class MetaOptError(Exception):
    pass


class InfeasibleError(MetaOptError):
    def __init__(self, most_violated: str, detail: str = ""):
        super().__init__(f"no feasible point; most violated constraint: {most_violated}"
                         + (f" ({detail})" if detail else ""))
        self.most_violated = most_violated


@dataclass(frozen=True)
class MetaOptProblem:
    ledger: BoundsLedger
    strategy: int
    kind: str = "basic1d"
    delta: float | None = None     # strategies 1 and 4
    delta1: float | None = None    # strategies 2 and 3
    delta2: float | None = None
    m: int = 1
    n: int = 1
    grid_points: int = 200
    gain_lo: float = 1e-4
    gain_hi: float = 10.0
    remainder_safety: float = 2.0

    def __post_init__(self):
        if self.strategy not in (1, 2, 3, 4):
            raise MetaOptError(f"strategy must be 1..4, got {self.strategy}")
        if self.strategy in (1, 4):
            if self.delta is None or self.delta <= 0:
                raise MetaOptError("strategies 1 and 4 need a positive total tolerance")
        else:
            if self.delta1 is None or self.delta2 is None or self.delta1 <= 0 or self.delta2 <= 0:
                raise MetaOptError("strategies 2 and 3 need positive delta1 and delta2")
        if self.grid_points < 2:
            raise MetaOptError(f"grid_points must be at least 2, got {self.grid_points}")
        if not 0 < self.gain_lo < self.gain_hi:
            raise MetaOptError("gain bounds must satisfy 0 < gain_lo < gain_hi")


@dataclass(frozen=True)
class MetaOptSolution:
    gains: dict
    budget: ErrorBudget
    active_constraints: tuple
    consistency: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closed forms

def solve_strategy3_closed_form(ledger: BoundsLedger, delta1: float,
                                delta2: float) -> MetaOptSolution:
    """Analytic solution of the truncated split-tolerance problem when the
    dither amplitude dominates the grading (eta one grading order higher):
    a = sqrt(8 delta1 kappa / |h'''|), eta = delta2 / |h|."""
    h0, h3 = ledger.norm(0), ledger.norm(3)
    if h0 <= 0.0 or h3 <= 0.0:
        raise MetaOptError("degenerate objective: |h| and |h'''| must be positive")
    if delta1 <= 0 or delta2 <= 0:
        raise MetaOptError("tolerances must be positive")
    a = math.sqrt(8.0 * delta1 * ledger.kappa / h3)
    eta = delta2 / h0
    p = eta / a ** 3  # bookkeeping for eta = p eps^3, a = eps
    k2 = (eta * a ** 3 * h3 + a * eta ** 3 * ledger.composites["L2h_hprime"]) / 16.0
    budget = ErrorBudget(
        k1=eta * h0, k2=k2, k3=0.0, k4=0.0,
        delta1=2.0 * k2 / (a * eta * ledger.kappa), delta2=eta * h0)
    return MetaOptSolution(
        gains={"a": a, "eta": eta, "p": p},
        budget=budget,
        active_constraints=("delta1_dominant", "delta2"),
        provenance={
            "method": "strategy3-closed-form",
            "m": 3, "n": 1,
            "constraints": {
                "delta1_dominant": "a^2 |h'''| / (8 kappa) <= delta1",
                "delta2": "eta |h| <= delta2",
            },
            "norms": {"h": h0, "h3": h3, "kappa": ledger.kappa},
            "domain": [list(iv) for iv in ledger.domain.intervals],
        })


def solve_monomial(p1: float, q1: float, k1: float,
                   p2: float, q2: float, k2: float) -> tuple[float, float]:
    """Closed form for max eta*a s.t. eta^p1 a^q1 <= K1, eta^p2 a^q2 <= K2.

    Finite solution requires p1/q1 < 1 < p2/q2; both constraints are active
    at the optimum."""
    if k1 <= 0 or k2 <= 0:
        raise MetaOptError("constraint levels must be positive")

    def ratio(p, q):
        return p / q if q != 0.0 else math.copysign(math.inf, p)

    if not (ratio(p1, q1) < 1.0 < ratio(p2, q2)):
        raise InfeasibleError("exponent-ordering", "requires p1/q1 < 1 < p2/q2")
    den = q2 * p1 - q1 * p2
    if den == 0.0:
        raise MetaOptError("degenerate exponents: q2 p1 - q1 p2 = 0")
    a = k2 ** (p1 / den) * k1 ** (-p2 / den)
    eta = k2 ** (-q1 / den) * k1 ** (q2 / den)
    return a, eta


# ---------------------------------------------------------------------------
# engine-based remainder tables (basic scheme, m = n = 1 grading)

_SUP_BLOCK_ELEMS = 1 << 21  # doubles in one sample-by-p block of RemainderTables._sup
_SUP_TILE = 8  # p columns per BLAS tile; blocks are whole tiles

class RemainderTables:
    """First-neglected engine terms as polynomials in the fine-tuning factor
    p, tabulated on a state grid so sup norms can be queried for any gains.

    The solvers that use these tables model only the dominant descent term;
    the tail of the averaged dynamics is dominated by the first neglected
    (degree-4) term at the small amplitudes the tolerances force, and the
    safety factor absorbs the rest.

    A sup query evaluates the polynomial at every tabulated sample for every
    distinct queried p: a geometric gain grid repeats eta / a, and its
    200 x 200 cells hold 2 428 distinct p. The distinct values are evaluated
    block-wise, so the temporary sample-by-p array never exceeds
    `_SUP_BLOCK_ELEMS` doubles (16 MB) whatever the grid size. Blocks are
    padded to whole `_SUP_TILE`-column tiles, because OpenBLAS computes the
    columns of a partial tile with another kernel whose last bits differ; so
    the result for a p does not depend on the other values in its query. A
    scalar p is a matrix-vector product."""

    G_DEGREE = 4  # first neglected averaged degree beyond the modeled one
    U_DEGREE = 2  # first transform degree beyond the modeled leading term

    def __init__(self, ledger: BoundsLedger, h, safety: float = 2.0,
                 y_samples: int = 101, t_samples: int = 32):
        self.safety = safety
        nodes = np.array([0.4, 0.7, 1.0, 1.3, 1.6])
        lo, hi = ledger.domain.intervals[0]
        ys = np.linspace(lo, hi, y_samples)
        ts = np.linspace(0.0, 2.0 * math.pi, t_samples, endpoint=False)
        mesh_y, mesh_t = np.meshgrid(ys, ts, indexing="ij")  # rows of the u table
        g_cols = []
        u_cols = []
        for p in nodes:
            s = SchemeInstance("basic1d", h, a=1.0, eta=float(p), m=1, n=1,
                               taylor_order=self.G_DEGREE)
            res = average(scheme_graded_field(s, self.G_DEGREE), self.G_DEGREE,
                          convention="w-zero-mean")
            g_part = res.g_field.degree_part(self.G_DEGREE)
            g_cols.append(g_part.eval(ys[:, None], 0.0, 1.0)[:, 0])
            u_cols.append(res.u[self.U_DEGREE - 1].eval(
                mesh_y.reshape(-1, 1), mesh_t.ravel(), 1.0)[:, 0])
        vander = np.vander(nodes, increasing=True)
        self._g_coeffs = np.linalg.solve(vander, np.asarray(g_cols)).T   # (ny, k)
        self._u_coeffs = np.linalg.solve(vander, np.asarray(u_cols)).T   # (ny*nt, k)
        self._degree = len(nodes)

    def _sup(self, coeffs: np.ndarray, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.ndim == 0:
            powers = np.stack([p ** k for k in range(self._degree)])
            return np.max(np.abs(np.tensordot(coeffs, powers, axes=(1, 0))))
        distinct, inverse = np.unique(p.ravel(), return_inverse=True)
        distinct = np.pad(distinct, (0, -distinct.size % _SUP_TILE), mode="edge")
        powers = np.stack([distinct ** k for k in range(self._degree)])  # (k, n)
        cols = max(1, _SUP_BLOCK_ELEMS // coeffs.shape[0] // _SUP_TILE) * _SUP_TILE
        out = np.empty(distinct.size)
        for c0 in range(0, distinct.size, cols):
            vals = np.tensordot(coeffs, powers[:, c0:c0 + cols], axes=(1, 0))
            np.abs(vals, out=vals)
            np.max(vals, axis=0, out=out[c0:c0 + cols])
        return out[inverse].reshape(p.shape)

    def g_remainder(self, eps, p) -> np.ndarray:
        return self.safety * np.asarray(eps, float) ** self.G_DEGREE * self._sup(self._g_coeffs, p)

    def u_remainder(self, eps, p) -> np.ndarray:
        return self.safety * np.asarray(eps, float) ** self.U_DEGREE * self._sup(self._u_coeffs, p)


# ---------------------------------------------------------------------------
# numeric solvers

def _constraints_for(prob: MetaOptProblem, ledger: BoundsLedger, tables):
    """Return list of (name, fn(a, eta) -> value, bound)."""
    h0, h3 = ledger.norm(0), ledger.norm(3)
    l2 = ledger.composites["L2h_hprime"]
    kap = ledger.kappa

    if prob.strategy == 3:
        if prob.m == prob.n == 1:
            return [
                ("delta1_truncated",
                 lambda a, e: (a ** 2 * h3 + e ** 2 * l2) / (8.0 * kap), prob.delta1),
                ("delta2", lambda a, e: e * h0, prob.delta2),
            ]
        if prob.m > prob.n:
            return [
                ("delta1_dominant", lambda a, e: a ** 2 * h3 / (8.0 * kap), prob.delta1),
                ("delta2", lambda a, e: e * h0, prob.delta2),
            ]
        raise MetaOptError("strategy 3 requires m >= n")
    if prob.m != 1 or prob.n != 1:
        raise MetaOptError("remainder-bearing strategies are implemented for m = n = 1")

    def delta1(a, e):
        return 2.0 * tables.g_remainder(a, e / a) / (a * e * kap)

    def delta2(a, e):
        return e * h0 + tables.u_remainder(a, e / a)

    if prob.strategy == 2:
        return [("delta1", delta1, prob.delta1), ("delta2", delta2, prob.delta2)]
    if prob.strategy == 1:
        return [("delta_total", lambda a, e: delta1(a, e) + delta2(a, e), prob.delta)]
    return [("delta_realtime",
             lambda a, e: a + 2.0 * tables.g_remainder(a, e / a) / (a * e * kap)
             + tables.u_remainder(a, e / a), prob.delta)]


def _bisect_up(feasible, lo: float, hi_cap: float) -> float:
    """Largest value in [lo, hi_cap] with feasible(value) true; feasible(lo)
    must hold and feasibility is monotone decreasing."""
    hi = lo
    step = lo * 0.5
    while hi + step <= hi_cap and feasible(hi + step):
        hi += step
        step *= 2.0
    top = min(hi + step, hi_cap)
    if feasible(top):
        return top
    lo_b, hi_b = hi, top
    for _ in range(200):
        mid = 0.5 * (lo_b + hi_b)
        if mid == lo_b or mid == hi_b:
            break  # adjacent floats: every further halving leaves [lo_b, hi_b] as is
        if feasible(mid):
            lo_b = mid
        else:
            hi_b = mid
    return lo_b


def solve_numeric(prob: MetaOptProblem, h=None) -> MetaOptSolution:
    """Maximize eta*a over a deterministic log grid with local refinement and
    bisection polish; ties broken by the lexicographically smallest grid index."""
    ledger = prob.ledger
    tables = None
    if prob.strategy in (1, 2, 4):
        if h is None:
            raise MetaOptError("strategies 1, 2 and 4 need the objective expression "
                               "to estimate remainders")
        tables = RemainderTables(ledger, h, safety=prob.remainder_safety)
    cons = _constraints_for(prob, ledger, tables)

    def evaluate(a_arr, e_arr):
        a_b = a_arr[:, None]
        e_b = e_arr[None, :]
        feas = np.ones((a_arr.size, e_arr.size), dtype=bool)
        worst_ratio = np.zeros_like(feas, dtype=float)
        for name, fn, bound in cons:
            v = np.broadcast_to(fn(a_b, e_b), feas.shape)
            feas &= v <= bound
            ratio = v / bound if math.isfinite(bound) else np.zeros_like(v)
            worst_ratio = np.maximum(worst_ratio, ratio)
        return feas, worst_ratio

    grid = np.geomspace(prob.gain_lo, prob.gain_hi, prob.grid_points)
    feas, worst = evaluate(grid, grid)
    if not feas.any():
        # name the constraint that is hardest to satisfy at the least-bad point
        idx = np.unravel_index(int(np.argmin(worst)), worst.shape)
        a0, e0 = grid[idx[0]], grid[idx[1]]
        ratios = [(fn(a0, e0) / bound if math.isfinite(bound) else 0.0, name)
                  for name, fn, bound in cons]
        raise InfeasibleError(max(ratios)[1])
    obj = np.where(feas, grid[:, None] * grid[None, :], -np.inf)
    best = int(np.argmax(obj))  # first (lexicographically smallest) maximizer
    ia, ie = np.unravel_index(best, obj.shape)
    a_best, e_best = float(grid[ia]), float(grid[ie])
    spacing = grid[1] / grid[0]

    width = spacing
    for _ in range(8):
        a_loc = np.geomspace(max(a_best / width, prob.gain_lo),
                             min(a_best * width, prob.gain_hi), 21)
        e_loc = np.geomspace(max(e_best / width, prob.gain_lo),
                             min(e_best * width, prob.gain_hi), 21)
        feas, _ = evaluate(a_loc, e_loc)
        if feas.any():
            obj = np.where(feas, a_loc[:, None] * e_loc[None, :], -np.inf)
            ia, ie = np.unravel_index(int(np.argmax(obj)), obj.shape)
            a_best, e_best = float(a_loc[ia]), float(e_loc[ie])
        width = width ** 0.5 * 1.12

    def point_ok(a, e):
        return all(float(fn(a, e)) <= bound for _, fn, bound in cons)

    for _ in range(3):  # coordinate bisection toward the active boundary
        e_best = _bisect_up(lambda e: point_ok(a_best, e), e_best, prob.gain_hi)
        a_best = _bisect_up(lambda a: point_ok(a, e_best), a_best, prob.gain_hi)

    active = tuple(name for name, fn, bound in cons
                   if math.isfinite(bound)
                   and abs(float(fn(a_best, e_best)) - bound) <= 1e-9 * abs(bound))
    eps = a_best ** (1.0 / prob.n)
    p_val = e_best / eps ** prob.m
    h0 = ledger.norm(0)
    k2 = (e_best * a_best ** 3 * ledger.norm(3)
          + a_best * e_best ** 3 * ledger.composites["L2h_hprime"]) / 16.0
    k3 = float(tables.g_remainder(a_best, e_best / a_best)) if tables else 0.0
    ru = float(tables.u_remainder(a_best, e_best / a_best)) if tables else 0.0
    budget = ErrorBudget(
        k1=e_best * h0 + ru, k2=k2, k3=k3, k4=0.0,
        delta1=2.0 * (k2 + k3) / (a_best * e_best * ledger.kappa),
        delta2=e_best * h0 + ru)
    return MetaOptSolution(
        gains={"a": a_best, "eta": e_best, "p": p_val},
        budget=budget,
        active_constraints=active,
        provenance={
            "method": f"strategy{prob.strategy}-grid",
            "m": prob.m, "n": prob.n,
            "constraints": {name: f"bound {bound}" for name, _, bound in cons},
            "domain": [list(iv) for iv in ledger.domain.intervals],
            "grid": {"points": prob.grid_points,
                     "lo": prob.gain_lo, "hi": prob.gain_hi},
        })


# ---------------------------------------------------------------------------
# dither-frequency tuning for the plant scheme

@dataclass(frozen=True)
class FrequencyTuning:
    omega: float
    diagnostics: dict


def tune_frequency(ledger: BoundsLedger, a: float, eta: float) -> FrequencyTuning:
    """Pick the dither frequency for the first-order-plant scheme.

    Returns omega = a / (2 (eta |h| + a)), the value consistent with the
    worked numbers this tuner reproduces. The stationary point of the
    literal worst-case-speed objective
        a eta w / 2 - eta w^2 (eta |h| + a)
    sits at a / (4 (eta |h| + a)) and is surfaced in the diagnostics rather
    than silently chosen.
    """
    if a <= 0 or eta <= 0:
        raise MetaOptError("gains must be positive")
    h0 = ledger.norm(0)
    denom = eta * h0 + a

    def objective(w):
        return a * eta * w / 2.0 - eta * w ** 2 * denom

    omega = a / (2.0 * denom)
    literal = a / (4.0 * denom)
    return FrequencyTuning(
        omega=omega,
        diagnostics={
            "literal_stationary_omega": literal,
            "objective_at_returned": objective(omega),
            "objective_at_literal": objective(literal),
            "coupling_bound_at_returned": eta * omega ** 2 * ledger.norm(1) * denom,
        })


# ---------------------------------------------------------------------------
# filtered-scheme tuner

def tune_filtered(ledger: BoundsLedger, delta1: float, delta2: float,
                  grid_points: int = 24,
                  a_range=(1e-3, 2.0), eta_range=(1e-5, 1.0),
                  mu_range=(1e-4, 1.0), gamma_range=(1e-2, 30.0)) -> MetaOptSolution:
    """Maximize eta for the low/high-pass filtered scheme subject to:

    (i)  oscillation: the dominant |x - x_av| amplitude eta*gamma*|htilde|
         with the quasi-steady estimator offset |htilde| = (a^2/4)|h''|,
         kept below delta1;
    (ii) gradient-estimate tube: the steady residual of the estimate
         dynamics (contraction rate a*gamma/2) under its forcing terms,
         divided by kappa, kept below delta2.

    The constraint assembly is recorded in the solution provenance; it is a
    documented reconstruction, validated by simulation rather than claimed
    identical to any external tuning.
    """
    h1, h2, h3 = ledger.norm(1), ledger.norm(2), ledger.norm(3)
    kap = ledger.kappa

    def osc(a, eta, mu, gamma):
        return eta * gamma * (a ** 2 / 4.0) * h2

    def tube(a, eta, mu, gamma):
        rate = a * gamma / 2.0
        forcing = (eta * h2 * h1
                   + (eta * gamma ** 2 / 2.0) * (a ** 2 / 4.0) * h2 * h1
                   + rate * (mu ** 2 * h1 + eta * mu * h1 * h2
                             + (a ** 2 / 8.0) * h3))
        return forcing / rate / kap

    cons = [("oscillation", osc, delta1), ("estimate_tube", tube, delta2)]
    axes = [np.geomspace(*a_range, grid_points), np.geomspace(*eta_range, grid_points),
            np.geomspace(*mu_range, grid_points), np.geomspace(*gamma_range, grid_points)]

    def evaluate(ax):
        mesh = np.meshgrid(*ax, indexing="ij")
        feas = np.ones(mesh[0].shape, dtype=bool)
        worst = np.zeros(mesh[0].shape)
        for _, fn, bound in cons:
            v = fn(*mesh)
            feas &= v <= bound
            worst = np.maximum(worst, v / bound)
        return mesh, feas, worst

    mesh, feas, worst = evaluate(axes)
    if not feas.any():
        idx = np.unravel_index(int(np.argmin(worst)), worst.shape)
        pt = [m[idx] for m in mesh]
        ratios = [(fn(*pt) / bound, name) for name, fn, bound in cons]
        raise InfeasibleError(max(ratios)[1])
    obj = np.where(feas, mesh[1], -np.inf)
    idx = np.unravel_index(int(np.argmax(obj)), obj.shape)
    best = [float(ax[i]) for ax, i in zip(axes, idx)]
    ranges = [a_range, eta_range, mu_range, gamma_range]
    width = axes[0][1] / axes[0][0]
    for _ in range(6):
        loc = [np.geomspace(max(b / width, r[0]), min(b * width, r[1]), 9)
               for b, r in zip(best, ranges)]
        mesh, feas, _ = evaluate(loc)
        if feas.any():
            obj = np.where(feas, mesh[1], -np.inf)
            idx = np.unravel_index(int(np.argmax(obj)), obj.shape)
            best = [float(ax[i]) for ax, i in zip(loc, idx)]
        width = width ** 0.5 * 1.1

    def eta_ok(eta):
        return all(fn(best[0], eta, best[2], best[3]) <= bound for _, fn, bound in cons)

    best[1] = _bisect_up(eta_ok, best[1], eta_range[1])
    a_v, eta_v, mu_v, gamma_v = best
    active = tuple(name for name, fn, bound in cons
                   if abs(fn(a_v, eta_v, mu_v, gamma_v) - bound) <= 1e-9 * bound)
    budget = ErrorBudget(
        k1=osc(a_v, eta_v, mu_v, gamma_v), k2=0.0, k3=0.0, k4=0.0,
        delta1=osc(a_v, eta_v, mu_v, gamma_v), delta2=tube(a_v, eta_v, mu_v, gamma_v))
    return MetaOptSolution(
        gains={"a": a_v, "eta": eta_v, "mu": mu_v, "gamma": gamma_v},
        budget=budget,
        active_constraints=active,
        provenance={
            "method": "filtered-grid",
            "constraints": {
                "oscillation": "eta*gamma*(a^2/4)*|h''| <= delta1",
                "estimate_tube": "[eta|h''||h'| + (eta g^2/2)(a^2/4)|h''||h'| "
                                 "+ (a g/2)(mu^2|h'| + eta mu |h'||h''| "
                                 "+ (a^2/8)|h'''|)] / (a g / 2) / kappa <= delta2",
            },
            "norms": {"h1": h1, "h2": h2, "h3": h3, "kappa": kap},
            "domain": [list(iv) for iv in ledger.domain.intervals],
        })


# ---------------------------------------------------------------------------
# consistency checks

@dataclass(frozen=True)
class ConsistencyReport:
    p_value: float
    p_near_unity: bool
    neglected_ratio: float
    neglected_terms_small: bool
    details: dict


def consistency_report(sol: MetaOptSolution, result: AveragingResult,
                       domain=None, p_band=(1.0 / 3.0, 3.0),
                       ratio_threshold: float = 0.1) -> ConsistencyReport:
    """Sanity checks for a tuned solution: is the fine-tuning factor near one
    and are the first neglected averaged terms small against the dominant
    descent term over the search domain?"""
    p_val = sol.gains.get("p", sol.gains["eta"] / sol.gains["a"])
    near = p_band[0] <= p_val <= p_band[1]
    ivs = sol.provenance.get("domain") if domain is None else domain.intervals
    if ivs is None:
        raise MetaOptError("no domain available for the consistency scan")
    if result.dim > 2 or len(ivs) < result.dim:
        raise MetaOptError(f"the consistency scan needs a domain over each of 1 or 2 axes; "
                           f"the result has {result.dim}, the domain {len(ivs)}")
    axes = [np.linspace(*ivs[d], 401) for d in range(result.dim)]
    ys = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, result.dim)
    eps = sol.gains["a"] ** (1.0 / sol.provenance.get("n", 1))
    g = result.g_field
    sups = [float(np.max(np.abs(g.degree_part(i).eval(ys, 0.0, eps))))
            for i in range(1, result.order + 1)]
    nonzero = [(i + 1, s) for i, s in enumerate(sups) if s > 0.0]
    if len(nonzero) >= 2:
        ratio = nonzero[1][1] / nonzero[0][1]
    else:
        ratio = 0.0
    return ConsistencyReport(
        p_value=float(p_val), p_near_unity=near,
        neglected_ratio=ratio, neglected_terms_small=ratio <= ratio_threshold,
        details={"per_degree_sup": sups,
                 "dominant_degree": nonzero[0][0] if nonzero else None})

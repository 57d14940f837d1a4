"""Gain-selection solvers: closed forms, monomial-constraint solutions, and
deterministic grid searches under error-budget constraints.

All searches are deterministic (log grids + local re-gridding + bisection
polish); no stochastic optimizers. Remainder magnitudes, where a strategy
needs them, are sups of the averaging engine's next-order term, taken over
the dominance front of its tables, with a fixed safety factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .averaging import average
from .contraction import BoundsLedger, ErrorBudget, plant_coupling_bound
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
    delta: float | None = None     # strategies 1 and 4
    delta1: float | None = None    # strategies 2 and 3
    delta2: float | None = None

    def __post_init__(self):
        if self.strategy not in (1, 2, 3, 4):
            raise MetaOptError(f"strategy must be 1..4, got {self.strategy}")
        if self.strategy in (1, 4):
            if self.delta is None or self.delta <= 0:
                raise MetaOptError("strategies 1 and 4 need a positive total tolerance")
        else:
            if self.delta1 is None or self.delta2 is None or self.delta1 <= 0 or self.delta2 <= 0:
                raise MetaOptError("strategies 2 and 3 need positive delta1 and delta2")


@dataclass(frozen=True)
class MetaOptSolution:
    gains: dict
    budget: ErrorBudget
    active_constraints: tuple
    provenance: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# error models

def _error_terms(ledger: BoundsLedger, tables):
    """A strategy's error model, written once: delta1(a, eta), the DC offset
    of the averaged system from ideal descent, and delta2(a, eta), the
    oscillation |x - y|. The constraints bound these two functions and the
    ErrorBudget reports them at the answer, so the two cannot disagree.

    Strategy 3 and its closed form (no tables) model the truncated averaged
    term, delta1 = (a^2 |h'''| + eta^2 |L_h^2 h'|) / (8 kappa), and
    delta2 = eta |h|; the closed form bounds only the a^2 part of delta1.
    Strategies 1, 2 and 4 read the first neglected engine terms from their
    RemainderTables: delta1 = 2 g_remainder / (a eta kappa)
    and delta2 = eta |h| + u_remainder.

    Squares are written as products: `x ** 2` on a lone float is libm `pow`
    and can differ in the last bit from numpy's array square, `x * x`, so a
    point alone would not always get the bits of its grid cell."""
    h0, kap = ledger.norm(0), ledger.kappa
    if tables is None:
        h3, l2 = ledger.norm(3), ledger.l2_hprime
        return (lambda a, e: (a * a * h3 + e * e * l2) / (8.0 * kap),
                lambda a, e: e * h0)
    return (lambda a, e: 2.0 * tables.g_remainder(a, e / a) / (a * e * kap),
            lambda a, e: e * h0 + tables.u_remainder(a, e / a))


def _budget(terms, *gains) -> ErrorBudget:
    """The ErrorBudget at `gains`: the model's two terms, delta1 and delta2, there."""
    dc, osc = terms
    return ErrorBudget(delta1=float(dc(*gains)), delta2=float(osc(*gains)))


# ---------------------------------------------------------------------------
# closed forms

def solve_strategy3_closed_form(ledger: BoundsLedger, delta1: float,
                                delta2: float) -> MetaOptSolution:
    """Analytic solution of the truncated split-tolerance problem when the
    dither amplitude dominates the grading (eta one grading order higher):
    a = sqrt(8 delta1 kappa / |h'''|), eta = delta2 / |h|. It bounds the
    dominant part a^2 |h'''| / (8 kappa) of the model's delta1; the budget
    reports the whole truncated term."""
    h0, h3 = ledger.norm(0), ledger.norm(3)
    if h0 <= 0.0 or h3 <= 0.0:
        raise MetaOptError("degenerate objective: |h| and |h'''| must be positive")
    if delta1 <= 0 or delta2 <= 0:
        raise MetaOptError("tolerances must be positive")
    a = math.sqrt(8.0 * delta1 * ledger.kappa / h3)
    eta = delta2 / h0
    p = eta / a ** 3  # bookkeeping for eta = p eps^3, a = eps
    return MetaOptSolution(
        gains={"a": a, "eta": eta, "p": p},
        budget=_budget(_error_terms(ledger, None), a, eta),
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

class RemainderTables:
    """First-neglected engine terms as polynomials in the fine-tuning factor
    p, tabulated on a state grid so sup norms can be queried for any gains.

    The solvers that use these tables model only the dominant descent term;
    the tail of the averaged dynamics is dominated by the first neglected
    (degree-4) term at the small amplitudes the tolerances force, and the
    safety factor SAFETY absorbs the rest.

    Two engine runs, at p = 1 and 2, fix the polynomials exactly: every term
    of the basic1d field carries one factor p, and reversing time while
    taking (eps, p) to (-eps, -p) negates the averaged field, so only the
    powers in G_POWERS and U_POWERS occur.

    A sup query needs only the dominance front of each table's signed rows
    +-(c0, c1) (Kung, Luccio & Preparata, JACM 1975): the rows that no other
    row matches or beats in both coefficients. For p >= 0 both monomials are
    non-negative and round-to-nearest is monotone, so a dominated row never
    rounds above the row that dominates it, and negation is exact; the max
    over the front of c0 p^k0 + c1 p^k1 is therefore the max over all rows
    of |c0 p^k0 + c1 p^k1|, bit for bit. The fronts are built once, here; a
    query evaluates them with plain elementwise arithmetic, once per distinct
    p since the memo was last cleared (a geometric gain grid repeats eta / a:
    the 200 x 200 cells of solve_numeric's grid hold 2 428 distinct p), and
    a scalar p or a 1-D batch of polish probes goes through the same formula
    directly.

    `solve_numeric` shares one instance among the strategies and
    tolerances of an objective (see `_remainder_tables`); an instance built
    directly works the same."""

    G_DEGREE = 4  # first neglected averaged degree beyond the modeled one
    U_DEGREE = 2  # first transform degree beyond the modeled leading term
    G_POWERS = (1, 3)  # the powers of p in the degree-G_DEGREE averaged term
    U_POWERS = (1, 2)  # and in the degree-U_DEGREE transform term
    SAFETY = 2.0  # factor on the first neglected terms, standing in for the tail
    Y_SAMPLES = 101  # samples of the domain in both tables
    T_SAMPLES = 32  # samples of the dither period in the u table

    def __init__(self, domain, h):
        nodes = (1.0, 2.0)
        lo, hi = domain.intervals[0]
        ys = np.linspace(lo, hi, self.Y_SAMPLES)
        ts = np.linspace(0.0, 2.0 * math.pi, self.T_SAMPLES, endpoint=False)
        mesh_y, mesh_t = np.meshgrid(ys, ts, indexing="ij")  # rows of the u table
        g_cols = []
        u_cols = []
        for p in nodes:
            s = SchemeInstance("basic1d", h, a=1.0, eta=p, m=1, n=1)
            res = average(scheme_graded_field(s, self.G_DEGREE), self.G_DEGREE,
                          convention="w-zero-mean")
            g_part = res.g_field.degree_part(self.G_DEGREE)
            g_cols.append(g_part.eval(ys[:, None], 0.0, 1.0)[:, 0])
            u_cols.append(res.u[self.U_DEGREE - 1].eval(
                mesh_y.reshape(-1, 1), mesh_t.ravel(), 1.0)[:, 0])
        self._g_coeffs = np.linalg.solve([[p ** k for k in self.G_POWERS] for p in nodes],
                                         g_cols).T   # (ny, 2)
        self._u_coeffs = np.linalg.solve([[p ** k for k in self.U_POWERS] for p in nodes],
                                         u_cols).T   # (ny*nt, 2)
        self._g_front = self._front(self._g_coeffs)
        self._u_front = self._front(self._u_coeffs)
        self._tables = ((self._g_front, self.G_POWERS), (self._u_front, self.U_POWERS))
        self.clear_memo()

    def clear_memo(self) -> None:
        """Forget the p of past queries. Answers keep their bits; only the
        memory the memo holds is given back."""
        # the sorted distinct p of past array queries, and the g and u sups there
        self._memo = [np.empty(0)] * 3
        self._last_p = self._last_at = None  # the last array query and its memo indices

    @staticmethod
    def _front(coeffs: np.ndarray) -> np.ndarray:
        """The rows of +-coeffs that no other row matches or beats in both columns."""
        signed = np.concatenate([coeffs, -coeffs])
        signed = signed[np.lexsort((-signed[:, 1], -signed[:, 0]))]  # by c0, then c1, descending
        best_before = np.maximum.accumulate(np.concatenate([[-np.inf], signed[:-1, 1]]))
        return signed[signed[:, 1] > best_before]

    @staticmethod
    def _sup(front: np.ndarray, powers: tuple, p) -> np.ndarray:
        """max over the front rows of c0 p^k0 + c1 p^k1 for each p >= 0,
        elementwise: a p gets the same bits alone or in any array."""
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1)
        vals = front[:, :1] * flat ** powers[0] + front[:, 1:] * flat ** powers[1]
        # + 0.0 makes the sup of an all-zero table +0.0, as |.| would
        return (np.max(vals, axis=0) + 0.0).reshape(p.shape)

    def _table_sup(self, k: int, p) -> np.ndarray:
        """The sup of table k (0: g, 1: u) at p.

        The sups for a mesh of p come from a memo of the distinct p that
        earlier meshes brought, and only new values are evaluated, so a grid
        walked slab by slab costs one evaluation per distinct p, as the whole
        grid at once would. A query equal to the last one reuses its lookup,
        so the g and u remainders of one e / a share it. A scalar or 1-D p,
        the polish's probes, repeats nothing and skips the memo, where an
        array would cost twice a direct evaluation."""
        p = np.asarray(p, dtype=float)
        if p.ndim <= 1:  # a polish probe or batch of them: nothing repeats
            return self._sup(*self._tables[k], p)
        if not np.array_equal(p, self._last_p):
            self._last_p, self._last_at = p.copy(), self._memo_index(p.ravel()).reshape(p.shape)
        return self._memo[1 + k][self._last_at]

    def g_remainder(self, eps, p) -> np.ndarray:
        return self.SAFETY * np.asarray(eps, float) ** self.G_DEGREE * self._table_sup(0, p)

    def u_remainder(self, eps, p) -> np.ndarray:
        return self.SAFETY * np.asarray(eps, float) ** self.U_DEGREE * self._table_sup(1, p)

    def _memo_index(self, flat: np.ndarray) -> np.ndarray:
        """Where each entry of flat sits in the memo, once the memo holds it."""
        distinct, inverse = np.unique(flat, return_inverse=True)
        known = self._memo[0]
        at = np.searchsorted(known, distinct)
        new = at == known.size
        new[~new] = known[at[~new]] != distinct[~new]
        if new.any():
            fresh = distinct[new]
            self._memo = [np.insert(m, at[new], v) for m, v in zip(
                self._memo, [fresh] + [self._sup(f, k, fresh) for f, k in self._tables])]
        return (at + np.cumsum(new) - new)[inverse]


_TABLES_KEPT = 4  # objectives whose tables solve_numeric keeps


@lru_cache(maxsize=_TABLES_KEPT)
def _remainder_tables(domain, h) -> RemainderTables:
    """The RemainderTables of (domain, h), built on the first request and
    kept for the _TABLES_KEPT objectives asked for last, so strategies 1, 2
    and 4 on one objective share one build. Sharing keeps every bit: the
    memo gives a p the same sup whatever queries came before, and
    `solve_numeric` clears it for each solve, so a kept instance holds no
    more than one solve's queries."""
    return RemainderTables(domain, h)


# ---------------------------------------------------------------------------
# numeric solvers

def _constraints_for(prob: MetaOptProblem, ledger: BoundsLedger, tables):
    """Return list of (name, fn(a, eta) -> value, bound), each fn read from
    the strategy's error model (`_error_terms`)."""
    dc, osc = _error_terms(ledger, tables)
    if prob.strategy == 3:
        return [("delta1_truncated", dc, prob.delta1), ("delta2", osc, prob.delta2)]

    # the dither probes x* +- a, which must stay where the norms were scanned;
    # with x* on or past an end of the domain no a > 0 does
    lo, hi = ledger.domain.intervals[0]
    half_width = min(ledger.x_star - lo, hi - ledger.x_star)
    if half_width <= 0.0:
        raise InfeasibleError("a_in_domain",
                              f"x_star {ledger.x_star} is not strictly inside [{lo}, {hi}]")
    in_domain = ("a_in_domain", lambda a, e: a, half_width)
    if prob.strategy == 2:
        return [("delta1", dc, prob.delta1), ("delta2", osc, prob.delta2), in_domain]
    if prob.strategy == 1:
        return [("delta_total", lambda a, e: dc(a, e) + osc(a, e), prob.delta), in_domain]
    return [("delta_realtime", lambda a, e: a + dc(a, e) + osc(a, e), prob.delta), in_domain]


_DEPTH = 6  # halving levels whose midpoints one feasibility call answers
_LEVELS = 200  # most halving levels a bisection walks


def _bisect_up(feasible, lo: float, hi_cap: float) -> float:
    """Largest value in [lo, hi_cap] with feasible(value) true; lo > 0,
    feasible(lo) must hold and feasibility is monotone decreasing.

    The walk is sequential: steps from lo that double while they stay
    feasible, then halvings of the last bracket until its ends are adjacent
    floats or _LEVELS levels have passed. `feasible` takes a 1-D array and
    answers each entry, so the walk asks in batches: one call for every
    doubling step up to hi_cap plus hi_cap itself, then one call for every
    midpoint the next _DEPTH halving levels can reach (2^_DEPTH - 1 of
    them). It takes the path one probe at a time would take, through the
    same midpoints, and returns its bits, as long as each entry gets the
    answer it would get alone."""
    ups = []  # lo + step + 2 step + ..., the values the doubling walk visits
    hi, step = lo, lo * 0.5
    while hi + step <= hi_cap:
        hi += step
        ups.append(hi)
        step *= 2.0
    ok = feasible(np.array(ups + [hi_cap]))
    n = int(np.argmin(np.append(ok[:-1], False)))  # the first infeasible step, or len(ups)
    if n == len(ups) and ok[-1]:
        return hi_cap
    lo_b, hi_b = ([lo] + ups + [hi_cap])[n:n + 2]
    for start in range(0, _LEVELS, _DEPTH):
        # split [lo_b, hi_b] at its midpoint, then each half at its own,
        # and so on for the next levels; the probes are the inner points
        pts = np.array([lo_b, hi_b])
        for _ in range(min(_DEPTH, _LEVELS - start)):
            split = np.empty(2 * pts.size - 1)
            split[0::2], split[1::2] = pts, 0.5 * (pts[:-1] + pts[1:])
            pts = split
        ok = feasible(pts[1:-1])
        i, j = 0, pts.size - 1  # the bracket [pts[i], pts[j]], one level at a time
        while j - i > 1:
            mid = (i + j) // 2
            if pts[mid] == pts[i] or pts[mid] == pts[j]:
                return float(pts[i])  # adjacent floats: every further halving leaves them
            if ok[mid - 1]:
                i = mid
            else:
                j = mid
        lo_b, hi_b = float(pts[i]), float(pts[j])
    return lo_b


_SLAB = 1 << 12  # mesh points _maximize evaluates at once (at least one row)
_GAIN_RANGE = (1e-4, 10.0)  # the box of a and eta that solve_numeric searches
_GAIN_GRID_POINTS = 200  # points per axis of solve_numeric's log grid


def _maximize(cons, objective, axes, ranges, points: int, rounds: int, widen: float,
              polish) -> tuple[list, tuple]:
    """Maximize objective(*x) subject to fn(*x) <= bound for every
    (name, fn, bound) in `cons`, over the box `ranges` (one (lo, hi) per axis).

    The constraints are evaluated on a sparse mesh of the log-grid `axes`, one
    slab of the first axis at a time: a slab holds as many rows as fit in
    _SLAB mesh points, and at least one, so memory is bounded by the slab,
    not the grid. Every constraint is elementwise, so a point gets the same
    bits in any slab. The first (lexicographically smallest-index) maximizer
    is kept: a later slab replaces it only with a strictly larger objective.
    Then `rounds` local log grids of `points` per axis, each inside `ranges`,
    follow it; their half-width, a ratio that starts at the first axis's
    spacing, shrinks to sqrt(width) * widen after each. Last, each axis in
    `polish` is bisected in turn toward the active boundary. Returns the point
    and the names of the constraints active there. If no grid point is
    feasible, InfeasibleError names the constraint hardest to satisfy at the
    first point whose worst constraint ratio is least."""

    def search(ax):
        """The first feasible maximizer on the mesh of `ax` (None if no point
        is feasible) and the first point of least worst ratio."""
        rows = max(1, _SLAB // math.prod(a.size for a in ax[1:]))
        best = least = None  # (value, point), replaced only by a strictly better value
        found = False
        for start in range(0, ax[0].size, rows):
            slab = [ax[0][start:start + rows], *ax[1:]]
            mesh = np.meshgrid(*slab, indexing="ij", sparse=True)
            feas = np.ones(tuple(a.size for a in slab), dtype=bool)
            worst = np.zeros(feas.shape)
            for _, fn, bound in cons:
                v = fn(*mesh)
                feas &= v <= bound
                if math.isfinite(bound):
                    worst = np.maximum(worst, v / bound)
            found |= bool(feas.any())
            obj = np.where(feas, objective(*mesh), -np.inf)
            idx = np.unravel_index(int(np.argmax(obj)), obj.shape)
            if best is None or obj[idx] > best[0]:
                best = (obj[idx], [float(a[i]) for a, i in zip(slab, idx)])
            idx = np.unravel_index(int(np.argmin(worst)), worst.shape)
            if least is None or worst[idx] < least[0]:
                least = (worst[idx], [a[i] for a, i in zip(slab, idx)])
        return (best[1] if found else None), least[1]

    best, least = search(axes)
    if best is None:
        # name the constraint that is hardest to satisfy at the least-bad point
        ratios = [(fn(*least) / bound if math.isfinite(bound) else 0.0, name)
                  for name, fn, bound in cons]
        raise InfeasibleError(max(ratios)[1])

    width = axes[0][1] / axes[0][0]
    for _ in range(rounds):
        local = [np.geomspace(max(b / width, lo), min(b * width, hi), points)
                 for b, (lo, hi) in zip(best, ranges)]
        best = search(local)[0] or best
        width = width ** 0.5 * widen

    def feasible(k, vs):
        """Whether each of the points `best` with axis k set to an entry of
        vs meets every constraint, entry by entry."""
        pt = best[:k] + [vs] + best[k + 1:]
        ok = np.ones(vs.shape, dtype=bool)
        for _, fn, bound in cons:
            ok &= fn(*pt) <= bound
        return ok

    for k in polish:
        best[k] = _bisect_up(lambda vs: feasible(k, vs), best[k], ranges[k][1])

    active = tuple(name for name, fn, bound in cons
                   if math.isfinite(bound)
                   and abs(float(fn(*best)) - bound) <= 1e-9 * abs(bound))
    return best, active


def solve_numeric(prob: MetaOptProblem) -> MetaOptSolution:
    """Maximize eta*a over a deterministic log grid with local refinement and
    bisection polish; ties broken by the lexicographically smallest grid index.
    Strategy 3 solves the truncated model under equal grading (m = n = 1);
    `solve_strategy3_closed_form` solves the dominant one.

    Strategies 1, 2 and 4 take the RemainderTables of the ledger's objective
    from a cache keyed by (ledger.domain, ledger.h) that holds the last
    _TABLES_KEPT objectives, so solving one objective under several
    strategies or tolerances runs the engine once."""
    ledger = prob.ledger
    tables = None
    if prob.strategy in (1, 2, 4):
        tables = _remainder_tables(ledger.domain, ledger.h)
        tables.clear_memo()
    cons = _constraints_for(prob, ledger, tables)
    grid = np.geomspace(*_GAIN_RANGE, _GAIN_GRID_POINTS)
    (a_best, e_best), active = _maximize(
        cons, lambda a, e: a * e, [grid, grid], [_GAIN_RANGE] * 2,
        points=21, rounds=8, widen=1.12, polish=(1, 0) * 3)

    return MetaOptSolution(
        gains={"a": a_best, "eta": e_best, "p": e_best / a_best},  # eta = p eps, a = eps
        budget=_budget(_error_terms(ledger, tables), a_best, e_best),
        active_constraints=active,
        provenance={
            "method": f"strategy{prob.strategy}-grid",
            "m": 1, "n": 1,
            "constraints": {name: f"bound {bound}" for name, _, bound in cons},
            "domain": [list(iv) for iv in ledger.domain.intervals],
            "grid": {"points": _GAIN_GRID_POINTS,
                     "lo": _GAIN_RANGE[0], "hi": _GAIN_RANGE[1]},
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
            "coupling_bound_at_returned": plant_coupling_bound(a, eta, omega, h0,
                                                               ledger.norm(1)),
        })


# ---------------------------------------------------------------------------
# filtered-scheme tuner

_FILTERED_RANGES = ((1e-3, 2.0), (1e-5, 1.0), (1e-4, 1.0), (1e-2, 30.0))  # a, eta, mu, gamma
_FILTERED_GRID_POINTS = 24


def tune_filtered(ledger: BoundsLedger, delta1: float, delta2: float) -> MetaOptSolution:
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

    # squares as products, for the reason given in _error_terms
    def osc(a, eta, mu, gamma):
        return eta * gamma * (a * a / 4.0) * h2

    def tube(a, eta, mu, gamma):
        rate = a * gamma / 2.0
        forcing = (eta * h2 * h1
                   + (eta * (gamma * gamma) / 2.0) * (a * a / 4.0) * h2 * h1
                   + rate * (mu * mu * h1 + eta * mu * h1 * h2
                             + (a * a / 8.0) * h3))
        return forcing / rate / kap

    cons = [("oscillation", osc, delta1), ("estimate_tube", tube, delta2)]
    axes = [np.geomspace(lo, hi, _FILTERED_GRID_POINTS) for lo, hi in _FILTERED_RANGES]
    (a_v, eta_v, mu_v, gamma_v), active = _maximize(
        cons, lambda a, eta, mu, gamma: eta, axes, _FILTERED_RANGES,
        points=9, rounds=6, widen=1.1, polish=(1,))
    gains = {"a": a_v, "eta": eta_v, "mu": mu_v, "gamma": gamma_v}
    edges = [f"{name}_{end}" for (name, v), box in zip(gains.items(), _FILTERED_RANGES)
             for end, bound in zip(("lo", "hi"), box) if v == bound]  # set by the box
    return MetaOptSolution(
        gains=gains,
        budget=_budget((osc, tube), a_v, eta_v, mu_v, gamma_v),
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
            "range_edges": edges,
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


_P_BAND = (1.0 / 3.0, 3.0)  # fine-tuning factors counted as near one
_NEGLECTED_RATIO_MAX = 0.1  # largest first-neglected / dominant sup counted as small


def consistency_report(sol: MetaOptSolution, h) -> ConsistencyReport:
    """Sanity checks for gains tuned on the objective h: is the fine-tuning
    factor near one, and are the first neglected averaged terms small
    against the dominant descent term?

    The basic1d scheme at the solution's gains and at the grading (m, n)
    its provenance names (1 each where it names none) is averaged to order
    m + n + 2 min(m, n): the basic1d averaged field has terms of degree
    m + n, m + 3n and 3m + n, so that is its first neglected degree. Each
    degree's sup is taken at 401 points of the domain the provenance names."""
    ivs = sol.provenance.get("domain")
    if ivs is None:
        raise MetaOptError("no domain available for the consistency scan")
    p_val = sol.gains["p"]
    near = _P_BAND[0] <= p_val <= _P_BAND[1]
    m, n = sol.provenance.get("m", 1), sol.provenance.get("n", 1)
    order = m + n + 2 * min(m, n)
    s = SchemeInstance("basic1d", h, sol.gains["a"], sol.gains["eta"], m, n)
    g = average(scheme_graded_field(s, order), order, convention="w-zero-mean").g_field
    ys = np.linspace(*ivs[0], 401)[:, None]
    sups = [float(np.max(np.abs(g.degree_part(i).eval(ys, 0.0, s.eps))))
            for i in range(1, order + 1)]
    nonzero = [(i + 1, v) for i, v in enumerate(sups) if v > 0.0]
    ratio = nonzero[1][1] / nonzero[0][1] if len(nonzero) >= 2 else 0.0
    return ConsistencyReport(
        p_value=float(p_val), p_near_unity=near,
        neglected_ratio=ratio, neglected_terms_small=ratio <= _NEGLECTED_RATIO_MAX,
        details={"per_degree_sup": sups,
                 "dominant_degree": nonzero[0][0] if nonzero else None})

"""Gain-selection solvers: closed forms, monomial-constraint solutions, and
deterministic searches under error-budget constraints.

Strategies 1, 2 and 4 solve for the largest amplitude at each p = eta / a
and search log p, strategy 3 has a closed form, the filtered tuner solves
for eta and searches log (a gamma) along an edge of its box. Remainder
magnitudes, where a strategy needs them, are sups of the averaging
engine's next-order term, taken over the dominance front of its tables,
with a fixed safety factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .averaging import average
from .contraction import BoundsLedger, ErrorBudget, plant_coupling_bound
from .schemes import SchemeInstance, scheme_graded_field
from .symexpr import _golden_max


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
    query evaluates them with plain elementwise arithmetic, so a scalar p
    gets the bits it gets inside any array.

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
        self._g_coeffs = self._fit(nodes, self.G_POWERS, g_cols)  # (ny, 2)
        self._u_coeffs = self._fit(nodes, self.U_POWERS, u_cols)  # (ny*nt, 2)
        self._g_front = self._front(self._g_coeffs)
        self._u_front = self._front(self._u_coeffs)
        self._g, self._u = (self._g_front, self.G_POWERS), (self._u_front, self.U_POWERS)

    @staticmethod
    def _fit(nodes, powers, cols) -> np.ndarray:
        """The (c0, c1) of c0 p^k0 + c1 p^k1 through cols at the two nodes, by
        Cramer's rule: elementwise IEEE arithmetic, the same bits on every
        host, where a LAPACK solve's depend on its kernels."""
        (m00, m01), (m10, m11) = ([p ** k for k in powers] for p in nodes)
        det = m00 * m11 - m01 * m10
        return np.stack([(cols[0] * m11 - cols[1] * m01) / det,
                         (cols[1] * m00 - cols[0] * m10) / det], axis=1)

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
        elementwise: a p gets the same bits alone (as a numpy scalar) or in any array."""
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1)
        vals = front[:, :1] * flat ** powers[0] + front[:, 1:] * flat ** powers[1]
        # + 0.0 makes the sup of an all-zero table +0.0, as |.| would
        return (vals.max(axis=0) + 0.0).reshape(p.shape)[()]

    def g_remainder(self, eps, p) -> np.ndarray:
        return self.SAFETY * np.asarray(eps, float) ** self.G_DEGREE * self._sup(*self._g, p)

    def u_remainder(self, eps, p) -> np.ndarray:
        return self.SAFETY * np.asarray(eps, float) ** self.U_DEGREE * self._sup(*self._u, p)


_TABLES_KEPT = 4  # objectives whose tables solve_numeric keeps


@lru_cache(maxsize=_TABLES_KEPT)
def _remainder_tables(domain, h) -> RemainderTables:
    """The RemainderTables of (domain, h), built on the first request and
    kept for the _TABLES_KEPT objectives asked for last, so strategies 1, 2
    and 4 on one objective share one build. Sharing keeps every bit: a query
    reads only the fronts, which the build fixes."""
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


def _active(cons, point) -> tuple:
    """The names of the finite constraints within 1e-9 of their bound at point."""
    return tuple(name for name, fn, bound in cons
                 if math.isfinite(bound)
                 and abs(float(fn(*point)) - bound) <= 1e-9 * abs(bound))


_GAIN_RANGE = (1e-4, 10.0)  # the box of a and eta that solve_numeric answers in
_LOG_SAMPLES = 401  # samples of the log axis that a solver scans before it refines


def _log_search(value, lo: float, hi: float):
    """The x in [log lo, log hi] that maximizes value(x): a scan of
    _LOG_SAMPLES points, evaluated as one array, then golden-section
    refinement within one step of the best sample, kept if its value is at
    least that sample's. None if every sample is -inf."""
    xs = np.linspace(math.log(lo), math.log(hi), _LOG_SAMPLES)
    vals, step = value(xs), xs[1] - xs[0]
    i = int(np.argmax(vals))
    if vals[i] == -np.inf:
        return None
    x, v = _golden_max(value, max(xs[0], xs[i] - step), min(xs[-1], xs[i] + step))
    return x if v >= vals[i] else xs[i]


def _largest_a(cons, ledger: BoundsLedger, tables, p):
    """The largest a in the box at which each constraint of strategy 1, 2 or
    4 holds with eta = p a, for an array of p. At fixed p each reads
    A a^2 + B a <= C with A, B >= 0 (`_error_terms` at eps = a), so it
    bounds a by 2 C / (B + sqrt(B^2 + 4 A C)), up to rounding."""
    g, u = (tables.SAFETY * tables._sup(*table, p) for table in (tables._g, tables._u))
    dc, lin = 2.0 * g / (p * ledger.kappa), p * ledger.norm(0)  # delta1 / a^2, delta2 - u a^2
    coeffs = {"delta1": (dc, 0.0), "delta2": (u, lin), "delta_total": (dc + u, lin),
              "delta_realtime": (dc + u, lin + 1.0), "a_in_domain": (0.0, 1.0)}
    a = np.minimum(_GAIN_RANGE[1], _GAIN_RANGE[1] / p)
    with np.errstate(divide="ignore"):  # A = B = 0 bounds nothing
        for name, _, c in cons:
            A, B = coeffs[name]
            if math.isfinite(c):
                a = np.minimum(a, 2.0 * c / (B + np.sqrt(B * B + 4.0 * A * c)))
    return a


def _largest_holding(holds, x: float) -> float:
    """The largest float at which holds(x) is true, reached from x by at
    most 64 ulp steps (a closed form rounds within a few): down until it
    holds, then up while it holds."""
    for _ in range(64):
        if not holds(x):
            x = math.nextafter(x, 0.0)
        elif holds(up := math.nextafter(x, math.inf)):
            x = up
        else:
            return x
    raise MetaOptError(f"no edge of the model within 64 ulps of {x}")


def _refuse(cons, *point):
    """Raise InfeasibleError naming the constraint hardest to satisfy at point."""
    raise InfeasibleError(max((fn(*point) / bound if math.isfinite(bound) else 0.0, name)
                              for name, fn, bound in cons)[1])


def _truncated_optimum(ledger: BoundsLedger, delta1: float, delta2: float):
    """max a eta in the box s.t. a^2 |h'''| + eta^2 |L_h^2 h'| <= 8 kappa delta1
    and eta |h| <= delta2: eta is the least of the ellipse's peak (equal
    terms), the largest float whose eta |h| rounds within delta2 and the
    box; a takes the rest, or the box and leaves eta the rest. A zero norm
    bounds nothing."""
    h0, h3, l2, kap = map(np.float64, (ledger.norm(0), ledger.norm(3), ledger.l2_hprime,
                                       ledger.kappa))
    hi = _GAIN_RANGE[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = _largest_holding(lambda e: e <= hi and e * h0 <= delta2, min(delta2 / h0, hi))
        eta = min(cap, np.sqrt(4.0 * kap * delta1 / l2))
        a = np.sqrt((8.0 * kap * delta1 - eta * eta * l2) / h3)
        if a > hi:
            a, eta = hi, min(cap, np.sqrt((8.0 * kap * delta1 - hi * hi * h3) / l2))
    return float(a), float(eta)


def solve_numeric(prob: MetaOptProblem) -> MetaOptSolution:
    """Maximize eta*a under the strategy's error model, both gains in the
    box _GAIN_RANGE. Strategy 3 takes `_truncated_optimum` (equal grading,
    m = n = 1; `solve_strategy3_closed_form` solves the dominant model).
    Strategies 1, 2 and 4 maximize p a(p)^2 with a(p) from `_largest_a`
    over log p (`_log_search`). Last, a moves by ulps (at fixed eta for
    strategy 3, fixed p otherwise) to the largest float at which every
    constraint holds as its function evaluates it. If the box holds no feasible gains,
    InfeasibleError names the constraint hardest to satisfy at a = eta = lo.

    Strategies 1, 2 and 4 take the RemainderTables of the ledger's objective
    from a cache keyed by (ledger.domain, ledger.h) that holds the last
    _TABLES_KEPT objectives, so solving one objective under several
    strategies or tolerances runs the engine once."""
    ledger, (lo, hi) = prob.ledger, _GAIN_RANGE
    tables = _remainder_tables(ledger.domain, ledger.h) if prob.strategy != 3 else None
    cons = _constraints_for(prob, ledger, tables)
    if prob.strategy == 3:
        a, eta = _truncated_optimum(ledger, prob.delta1, prob.delta2)
        if a < lo or eta < lo:
            _refuse(cons, lo, lo)
        eta_at, method = (lambda a: eta), "strategy3-truncated-optimum"
    else:
        def value(x):  # a eta at p = e^x, -inf where a gain is below the box
            p = np.exp(x)
            a = _largest_a(cons, ledger, tables, p)
            return np.where((a >= lo) & (p * a >= lo), p * a * a, -np.inf)

        x = _log_search(value, lo / hi, hi / lo)
        if x is None:  # no sampled p leaves both gains in the box
            _refuse(cons, lo, lo)
        p = float(np.exp(x))
        a = float(_largest_a(cons, ledger, tables, p))
        eta_at, method = (lambda a: p * a), f"strategy{prob.strategy}-log-p-search"
    a = _largest_holding(lambda a: a <= hi and eta_at(a) <= hi and all(
        fn(a, eta_at(a)) <= bound for _, fn, bound in cons), a)
    eta = eta_at(a)
    return MetaOptSolution(
        gains={"a": a, "eta": eta, "p": eta / a},  # eta = p eps, a = eps
        budget=_budget(_error_terms(ledger, tables), a, eta),
        active_constraints=_active(cons, (a, eta)),
        provenance={"method": method, "m": 1, "n": 1,
                    "constraints": {name: f"bound {bound}" for name, _, bound in cons},
                    "domain": [list(iv) for iv in ledger.domain.intervals]})


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


def _largest_eta(cons, a, mu, gamma):
    """The largest eta in the filtered tuner's box at which each constraint
    holds at (a, mu, gamma), up to rounding: each is affine in eta, so it
    caps eta at (bound - f(0)) / (f(1) - f(0))."""
    eta = _FILTERED_RANGES[1][1]
    with np.errstate(divide="ignore"):  # a constraint that does not grow with eta caps nothing
        for _, fn, bound in cons:
            zero = fn(a, 0.0, mu, gamma)
            eta = np.minimum(eta, (bound - zero) / (fn(a, 1.0, mu, gamma) - zero))
    return eta


def tune_filtered(ledger: BoundsLedger, delta1: float, delta2: float) -> MetaOptSolution:
    """Maximize eta for the low/high-pass filtered scheme subject to:

    (i)  gradient-estimate tube: the steady residual of the estimate
         dynamics (contraction rate a*gamma/2) under its forcing terms,
         divided by kappa, kept below delta1;
    (ii) oscillation: the dominant |x - x_av| amplitude eta*gamma*|htilde|
         with the quasi-steady estimator offset |htilde| = (a^2/4)|h''|,
         kept below delta2.

    mu stays at its floor: the oscillation does not read it, and both tube
    terms that do grow with it. Write s = a gamma. At fixed s the tube's
    eta coefficient, (2/s + s/4 + mu) |h'||h''| / kappa, is fixed, while
    its eta-free term (mu^2 |h'| + (a^2/8) |h'''|) / kappa and the
    oscillation's coefficient s a |h''| / 4 grow with a. So the largest eta
    (`_largest_eta`) takes the least a, and the answer lies where gamma is
    at its cap or a at its floor. A scan of log s along that edge and a
    golden-section refinement (`_log_search`) pick s, and eta then moves by
    ulps to the largest float at which both constraints hold as their
    functions evaluate them. If no s leaves eta in the box, InfeasibleError
    names the constraint hardest to satisfy at the box's low corner.

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

    cons = [("estimate_tube", tube, delta1), ("oscillation", osc, delta2)]
    (a_lo, a_hi), (eta_lo, eta_hi), (mu, _), (g_lo, g_hi) = _FILTERED_RANGES

    def edge(x):  # (a, gamma) with a gamma = e^x, gamma at its cap or a at its floor
        s = np.exp(x)
        return np.clip(s / g_hi, a_lo, a_hi), np.clip(s / a_lo, g_lo, g_hi)

    def value(x):  # the largest eta at x on the edge, -inf below the box
        a, gamma = edge(x)
        eta = _largest_eta(cons, a, mu, gamma)
        return np.where(eta >= eta_lo, eta, -np.inf)

    x = _log_search(value, a_lo * g_lo, a_hi * g_hi)
    if x is None:
        _refuse(cons, a_lo, eta_lo, mu, g_lo)
    a, gamma = map(float, edge(x))
    eta = _largest_holding(lambda e: e <= eta_hi and all(
        fn(a, e, mu, gamma) <= bound for _, fn, bound in cons),
        float(_largest_eta(cons, a, mu, gamma)))
    gains = {"a": a, "eta": eta, "mu": mu, "gamma": gamma}
    edges = [f"{name}_{end}" for (name, v), box in zip(gains.items(), _FILTERED_RANGES)
             for end, bound in zip(("lo", "hi"), box) if v == bound]  # set by the box
    return MetaOptSolution(
        gains=gains,
        budget=_budget((tube, osc), a, eta, mu, gamma),
        active_constraints=_active(cons, (a, eta, mu, gamma)),
        provenance={
            "method": "filtered-log-s-search",
            "constraints": {
                "estimate_tube": "[eta|h''||h'| + (eta g^2/2)(a^2/4)|h''||h'| "
                                 "+ (a g/2)(mu^2|h'| + eta mu |h'||h''| "
                                 "+ (a^2/8)|h'''|)] / (a g / 2) / kappa <= delta1",
                "oscillation": "eta*gamma*(a^2/4)*|h''| <= delta2",
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

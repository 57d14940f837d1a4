"""Error-bound calculators: sup-norm ledgers, robustness tubes,
two-timescale coupling bounds, and the assembled error budget."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .symexpr import (
    Domain,
    Expr,
    add,
    differentiate,
    eval_expr,
    max_var_index,
    mul,
    neg,
    nth_derivative,
    scan_argmin,
    scan_supnorm,
)


class BoundsError(Exception):
    pass


class NonContractingError(BoundsError):
    """kappa <= 0 at the declared optimum (objective not locally convex)."""


def lie_along(h: Expr, v: Expr) -> Expr:
    """1-D Lie bracket of v along h: v' h - h' v."""
    return add(mul(differentiate(v), h), neg(mul(differentiate(h), v)))


@dataclass(frozen=True)
class BoundsLedger:
    """Sup-norm estimates of an objective h and its derivatives on a domain,
    plus the local curvature kappa at the target optimum. The ledger carries
    h, so a solver that reads its norms reads the objective they belong to."""
    h: Expr
    domain: Domain
    norms: tuple          # norms[i] ~ sup |h^(i)| on domain, i = 0..N
    kappa: float
    x_star: float
    l2_hprime: float      # sup |L_h^2 h'| on domain

    def norm(self, i: int) -> float:
        return self.norms[i]


_LEDGERS_KEPT = 4  # objectives whose ledgers build_ledger keeps


def build_ledger(h: Expr, dom: Domain, x_star: float | None = None) -> BoundsLedger:
    """Scan sup norms of h .. h''' plus the composite |L_h^2 h'| and read
    off kappa = h''(x*) at the declared (or scanned) optimum. A declared x*
    off dom raises BoundsError: its kappa would not belong to the norms.

    The scans are deterministic, so the ledgers of the _LEDGERS_KEPT
    objectives asked for last are kept and handed out again: tuning one
    objective under several strategies, such as `esgain tune` jobs run one
    after another in a process, scans it once."""
    # repr tells -0.0 from 0.0, which == does not, and the ledger prints both
    return _scan_ledger(h, dom, x_star, (repr(dom), repr(x_star)))


@lru_cache(maxsize=_LEDGERS_KEPT)
def _scan_ledger(h: Expr, dom: Domain, x_star: float | None, reprs: tuple) -> BoundsLedger:
    """The ledger of h on dom; `reprs` only keys the cache."""
    if max_var_index(h) > 0:
        raise BoundsError(f"a ledger scans h over one variable, but h uses "
                          f"x{max_var_index(h) + 1}")
    lo, hi = dom.intervals[0]
    if x_star is not None and not lo <= x_star <= hi:
        raise BoundsError(f"x_star {x_star} is not in the ledger domain [{lo}, {hi}]")
    norms = []
    d = h
    for _ in range(4):
        norms.append(scan_supnorm(d, dom))
        d = differentiate(d)
    if x_star is None:
        x_star = scan_argmin(h, dom)[0]
    kappa = eval_expr(nth_derivative(h, 2), (x_star,))
    if kappa <= 0.0:
        raise NonContractingError(
            f"h''({x_star}) = {kappa}; the declared optimum is not locally convex")
    l2_hprime = scan_supnorm(lie_along(h, lie_along(h, differentiate(h))), dom)
    return BoundsLedger(h, dom, tuple(norms), float(kappa), float(x_star), l2_hprime)


def robustness_tube(kappa_robust: float, r_bound: float) -> float:
    """Asymptotic tube radius |R| / kappa for a bounded perturbation."""
    if kappa_robust <= 0.0:
        raise BoundsError("kappa must be positive")
    if r_bound < 0.0:
        raise BoundsError("perturbation bound must be nonnegative")
    return r_bound / kappa_robust


@dataclass(frozen=True)
class SingularPerturbationInputs:
    d: float        # bound on the drift of the fast equilibrium map
    alpha: float    # Lipschitz constant of the slow field in the fast state
    nu: float       # timescale separation
    lambda_z: float  # robustness rate of the fast subsystem

    def __post_init__(self):
        for name in ("d", "alpha", "nu", "lambda_z"):
            if getattr(self, name) <= 0.0:
                raise BoundsError(f"{name} must be > 0")


def singular_perturbation_bound(inp: SingularPerturbationInputs) -> float:
    """Generic two-timescale rate-error bound d * alpha * nu / lambda_z."""
    return inp.d * inp.alpha * inp.nu / inp.lambda_z


def plant_coupling_bound(a: float, eta: float, omega: float,
                         h_norm: float, hprime_norm: float) -> float:
    """Rate-error bound for the first-order-plant scheme in original time:
    eta * omega^2 * |h'| * (eta |h| + a).

    This is the scheme-specific displayed bound; it carries an extra factor
    eta relative to the generic evaluator with alpha = |h'| because the slow
    field's Lipschitz constant in the fast state is eta |h'|.
    """
    return eta * omega ** 2 * hprime_norm * (eta * h_norm + a)


@dataclass(frozen=True)
class ErrorBudget:
    delta1: float   # DC error of the averaged system vs ideal descent
    delta2: float   # oscillatory error |x - y|

    def __post_init__(self):
        for name in ("delta1", "delta2"):
            if getattr(self, name) < 0.0:
                raise BoundsError(f"{name} must be >= 0")

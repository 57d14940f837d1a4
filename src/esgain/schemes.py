"""Catalog of the supported extremum-seeking loops.

Each scheme is available in three forms: an exact simulatable right-hand
side in original time, an eps-graded field consumable by the averaging
engine (gains reparametrized as powers of the grading parameter), and a
hand-coded closed-form averaged reference used as a cross-check oracle.

Sign conventions are normalized to descent: every catalog scheme drives its
parameter toward a minimum of the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fourieralg import GradedField, SeparableTerm, TrigPoly, trig_power, unit_term
from .symexpr import (Const, Expr, Field, Var, add, compile_expr, differentiate, expr_source,
                      max_var_index, mul, nth_derivative)
from .contraction import lie_along

KINDS = ("basic1d", "plant1d", "filtered1d", "planar")


class SchemeError(Exception):
    pass


@dataclass(frozen=True)
class DitherChannel:
    waveform: str  # "sin" or "cos"
    harmonic: int = 1

    def __post_init__(self):
        if self.waveform not in ("sin", "cos"):
            raise SchemeError(f"waveform must be sin or cos, got {self.waveform!r}")
        if self.harmonic < 1:
            raise SchemeError("harmonic must be >= 1")

    def trig(self) -> TrigPoly:
        if self.waveform == "sin":
            return TrigPoly.sine(self.harmonic)
        return TrigPoly.cosine(self.harmonic)

    def source(self, arg: str) -> str:
        """Python source of the channel, sin(k * arg) or cos(k * arg), at the
        time source `arg`; multiplying by a harmonic of 1 is exact and is
        left out."""
        k = self.harmonic
        return f"{self.waveform}({arg})" if k == 1 else f"{self.waveform}({float(k)!r}*({arg}))"


@dataclass(frozen=True)
class DitherSpec:
    channels: tuple

    @classmethod
    def of(cls, *specs) -> "DitherSpec":
        chans = []
        for s in specs:
            if isinstance(s, DitherChannel):
                chans.append(s)
            else:
                wf, k = (s, 1) if isinstance(s, str) else s
                chans.append(DitherChannel(wf, k))
        return cls(tuple(chans))


_DEFAULT_DITHER = {
    "basic1d": DitherSpec.of("sin"),
    "plant1d": DitherSpec.of("sin"),
    "filtered1d": DitherSpec.of("sin"),
    "planar": DitherSpec.of("cos", "sin"),
}

_STATE_DIM = {"basic1d": 1, "plant1d": 2, "filtered1d": 3, "planar": 2}


@dataclass(frozen=True)
class SchemeInstance:
    kind: str
    h: Expr
    a: float
    eta: float
    m: int = 1
    n: int = 1
    mu: float | None = None
    gamma: float | None = None
    omega: float | None = None
    dither: DitherSpec | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemeError(f"unknown scheme kind {self.kind!r}")
        if self.a <= 0 or self.eta <= 0:
            raise SchemeError("gains a and eta must be positive")
        if self.m < 1 or self.n < 1:
            raise SchemeError("grading exponents must be positive integers")
        if self.kind == "filtered1d" and (self.mu is None or self.gamma is None
                                          or self.mu <= 0 or self.gamma <= 0):
            raise SchemeError("filtered1d needs positive mu and gamma")
        if self.kind == "plant1d" and (self.omega is None or self.omega <= 0):
            raise SchemeError("plant1d needs positive omega")
        if self.dither is None:
            object.__setattr__(self, "dither", _DEFAULT_DITHER[self.kind])
        nch = {"basic1d": 1, "plant1d": 1, "filtered1d": 1, "planar": 2}[self.kind]
        if len(self.dither.channels) != nch:
            raise SchemeError(f"{self.kind} needs {nch} dither channel(s)")
        hdim = max_var_index(self.h) + 1
        if self.kind == "planar" and hdim > 2 or self.kind != "planar" and hdim > 1:
            raise SchemeError("objective uses more variables than the scheme has")

    @property
    def dim(self) -> int:
        return _STATE_DIM[self.kind]

    @property
    def eps(self) -> float:
        """Grading parameter implied by a = eps^n."""
        return self.a ** (1.0 / self.n)

    @property
    def p(self) -> float:
        """Fine-tuning factor implied by eta = p * eps^m."""
        return self.eta / self.eps ** self.m


# ---------------------------------------------------------------------------
# simulatable right-hand sides (original, unscaled time)
#
# Every right-hand side is a generated `Field`. Its sources run the
# operations of the closed forms in their order, e.g. -eta h(x + a u) u is
# ((-eta)*h(x0 + au))*u with au = a*u, so a float state, an array state and
# the function itself agree bit for bit. A product of the dither and the
# gains, such as au, is a dither binding of its own, so a march computes it
# once per stage time and not at every stage.

def _h_lines(h: Expr, args) -> list:
    """Bindings that evaluate v = h(args), each argument once."""
    names = [f"_v{i}" for i in range(len(args))]
    return [*zip(names, args), ("v", expr_source(h, names))]


def dithered_field(h: Expr, a, eta, channel: DitherChannel = DitherChannel("sin"),
                   omega=None) -> Field:
    """xdot = -eta h(x + a u) u with dither u = channel(omega t); `a` and
    `eta` may be arrays with one element per cell."""
    return Field(["(neg_eta*v)*u"], _h_lines(h, ["x0 + au"]),
                 [("u", channel.source("t" if omega is None else "w*t")), ("au", "a*u")],
                 a=a, neg_eta=-eta, **({} if omega is None else {"w": omega}))


def scheme_field(s: SchemeInstance) -> Field:
    """The scheme's exact right-hand side f(t, x)."""
    h, chans = s.h, s.dither.channels
    if s.kind == "basic1d":
        return dithered_field(h, s.a, s.eta, chans[0])
    if s.kind == "plant1d":
        # state (z, x): first-order plant driven by the dithered knob;
        # eta is the rate in dither-scaled time
        return Field(["-x0 + x1 + au", "(neg_k*v)*u"], _h_lines(h, ["x0"]),
                     [("u", chans[0].source("w*t")), ("au", "a*u")],
                     a=s.a, neg_k=-(s.eta * s.omega), w=s.omega)
    if s.kind == "filtered1d":
        return Field(["neg_eta*x2", "mu*err", "gamma*(neg_half_a*x2 + err*u)"],
                     _h_lines(h, ["x0 + au"]) + [("err", "v - x1")],
                     [("u", chans[0].source("t")), ("au", "a*u")], a=s.a, neg_eta=-s.eta,
                     mu=s.mu, gamma=s.gamma, neg_half_a=-(s.a / 2.0))
    return Field(["ed1*v", "ed2*v"], _h_lines(h, ["x0 + ad1", "x1 + ad2"]),
                 [("d1", chans[0].source("t")), ("d2", chans[1].source("t")),
                  ("ad1", "a*d1"), ("ad2", "a*d2"), ("ed1", "neg_eta*d1"), ("ed2", "neg_eta*d2")],
                 a=s.a, neg_eta=-s.eta)


def averaged_field(s: SchemeInstance, g) -> Field:
    """The averaged system eps^(m + n) g(y) of one degree-(m + n) field g,
    in original time."""
    return Field.scaled(s.eps ** (s.m + s.n), tuple(g))


def scheme_rhs(s: SchemeInstance) -> Field:
    """Exact right-hand side f(t, x) -> xdot; broadcasts over trailing axes."""
    return scheme_field(s)


def plant_slow_rhs(s: SchemeInstance) -> Field:
    """Reduced system of plant1d: the fast state frozen at its equilibrium
    map; equals the basic scheme running at the plant's dither frequency."""
    if s.kind != "plant1d":
        raise SchemeError("slow reduction is defined for plant1d")
    return dithered_field(s.h, s.a, s.eta * s.omega, s.dither.channels[0], s.omega)


# ---------------------------------------------------------------------------
# eps-graded fields for the averaging engine

def scheme_graded_field(s: SchemeInstance, avg_order: int) -> GradedField:
    """Time-rescaled, Taylor-expanded eps-graded field for the engine.

    The knob map h(x + a * dither) is expanded about the averaged state
    through every term of eps degree at most avg_order, so the field holds
    exactly what averaging to that order reads: the k-th derivative of h
    sits at degree m + k n (basic1d, plant1d) or 1 + k (planar,
    filtered1d). Gains are substituted as p * eps^m and eps^n so every term
    carries an explicit eps degree.
    """
    if s.kind in ("basic1d", "plant1d"):
        # plant1d's slow part in dither-scaled time is exactly the basic map scheme
        m, n, p = s.m, s.n, s.p
        u = s.dither.channels[0].trig()
        terms = [SeparableTerm((mul(Const(-p / math.factorial(k)), nth_derivative(s.h, k)),),
                               trig_power(u, k + 1), m + k * n)
                 for k in range((avg_order - m) // n + 1)]
        return GradedField.build(1, avg_order, terms)
    if s.kind == "planar":
        if (s.m, s.n) != (1, 1):
            raise SchemeError("planar grading supports m = n = 1")
        p = s.p
        d1 = s.dither.channels[0].trig()
        d2 = s.dither.channels[1].trig()
        terms = []
        for k in range(avg_order):
            for j in range(k + 1):
                coeff = -p / (math.factorial(j) * math.factorial(k - j))
                dh = nth_derivative(nth_derivative(s.h, j, 0), k - j, 1)
                space = mul(Const(coeff), dh)
                base = trig_power(d1, j) * trig_power(d2, k - j)
                terms.append(unit_term(2, 0, space, base * d1, 1 + k))
                terms.append(unit_term(2, 1, space, base * d2, 1 + k))
        return GradedField.build(2, avg_order, terms)
    # filtered1d: all four gains graded as order-eps with eps = a
    if (s.m, s.n) != (1, 1):
        raise SchemeError("filtered1d grading supports m = n = 1")
    eps = s.a
    r_eta, r_mu, r_gamma = s.eta / eps, s.mu / eps, s.gamma / eps
    u = s.dither.channels[0].trig()
    one = TrigPoly.constant(1.0)
    terms = [
        unit_term(3, 0, mul(Const(-r_eta), Var(2)), one, 1),
        unit_term(3, 1, mul(Const(-r_mu), Var(1)), one, 1),
        unit_term(3, 2, mul(Const(-r_gamma), Var(1)), u, 1),
        unit_term(3, 2, mul(Const(-r_gamma / 2.0), Var(2)), one, 2),
    ]
    for k in range(avg_order):
        dk, sk = nth_derivative(s.h, k), trig_power(u, k)
        terms.append(unit_term(3, 1, mul(Const(r_mu / math.factorial(k)), dk), sk, 1 + k))
        terms.append(unit_term(3, 2, mul(Const(r_gamma / math.factorial(k)), dk), sk * u, 1 + k))
    return GradedField.build(3, avg_order, terms)


# ---------------------------------------------------------------------------
# closed-form averaged references (cross-check oracles)

@dataclass(frozen=True)
class ReferenceAveraged:
    """Hand-coded averaged system: per-degree fields in grading units (with
    the fine-tuning factor p substituted) plus the physical-gain field."""
    degree_fields: dict          # degree -> tuple[Expr] per component
    averaged: tuple              # physical-gain autonomous field

    def eval_degree(self, degree: int, y) -> np.ndarray:
        comps = self.degree_fields[degree]
        return np.asarray([float(compile_expr(c)(list(y))) for c in comps])


def reference_averaged(s: SchemeInstance) -> ReferenceAveraged:
    if s.kind == "plant1d":
        raise SchemeError("plant1d has no closed-form averaged reference; "
                          "its slow system is basic1d")
    if s.kind == "basic1d":
        # the displayed terms sit at degrees m + n, m + 3n and 3m + n; other
        # gradings let further terms share these degrees (m + 5n = 3m + n at
        # (2, 1)), and the reference leaves those terms out
        if (s.m, s.n) != (1, 1):
            raise SchemeError("basic1d reference supports m = n = 1")
        p = s.p
        h1 = differentiate(s.h)
        h3 = nth_derivative(s.h, 3)
        l2 = lie_along(s.h, lie_along(s.h, h1))
        # degrees m + n = 2, and m + 3n = 3m + n = 4
        deg = {2: (mul(Const(-p / 2.0), h1),),
               4: (add(mul(Const(-p / 16.0), h3), mul(Const(-p ** 3 / 16.0), l2)),)}
        physical = (add(mul(Const(-s.a * s.eta / 2.0), h1),
                        mul(Const(-s.a * s.eta ** 3 / 16.0), l2),
                        mul(Const(-s.eta * s.a ** 3 / 16.0), h3)),)
        return ReferenceAveraged(deg, physical)
    if s.kind == "planar":
        wf = tuple(c.waveform for c in s.dither.channels)
        hs = tuple(c.harmonic for c in s.dither.channels)
        p = s.p
        h1 = differentiate(s.h, 0)
        h2 = differentiate(s.h, 1)
        if wf == ("cos", "sin") and hs == (1, 1):
            # same-frequency quadrature dithers: gradient plus precession.
            # The precessing cross term carries a factor h(y); coefficient
            # magnitude eta^2 / 2 after substituting physical gains.
            deg = {2: (add(mul(Const(-p / 2.0), h1),
                           mul(Const(-p * p / 2.0), s.h, h2)),
                       add(mul(Const(-p / 2.0), h2),
                           mul(Const(p * p / 2.0), s.h, h1)))}
            physical = (add(mul(Const(-s.a * s.eta / 2.0), h1),
                            mul(Const(-s.eta ** 2 / 2.0), s.h, h2)),
                        add(mul(Const(-s.a * s.eta / 2.0), h2),
                            mul(Const(s.eta ** 2 / 2.0), s.h, h1)))
            return ReferenceAveraged(deg, physical)
        if wf == ("sin", "sin") and hs[0] != hs[1]:
            # frequency-separated dithers: channels decouple at degree 2
            deg = {2: (mul(Const(-p / 2.0), h1), mul(Const(-p / 2.0), h2))}
            physical = (mul(Const(-s.a * s.eta / 2.0), h1),
                        mul(Const(-s.a * s.eta / 2.0), h2))
            return ReferenceAveraged(deg, physical)
        raise SchemeError(f"no reference for planar dither {wf}/{hs}")
    # filtered1d: only the unambiguous dominant rows of the displayed
    # averaged system are encoded; higher terms are left to the engine. The
    # gradient estimate contracts at rate a*gamma/2 toward h'(x).
    eps = s.a
    r_eta, r_mu, r_gamma = s.eta / eps, s.mu / eps, s.gamma / eps
    y2, y3 = Var(1), Var(2)
    h1 = differentiate(s.h)
    deg = {
        1: (mul(Const(-r_eta), y3),
            add(mul(Const(r_mu), s.h), mul(Const(-r_mu), y2)),
            Const(0.0)),
        2: (Const(0.0),
            Const(0.0),
            add(mul(Const(r_gamma / 2.0), h1), mul(Const(-r_gamma / 2.0), y3))),
    }
    physical = (mul(Const(-s.eta), y3),
                add(mul(Const(s.mu), s.h), mul(Const(-s.mu), y2)),
                add(mul(Const(s.a * s.gamma / 2.0), h1),
                    mul(Const(-s.a * s.gamma / 2.0), y3)))
    return ReferenceAveraged(deg, physical)


def _ideal_field(s: SchemeInstance) -> Field:
    """Dominant-order autonomous descent the scheme is designed to mimic."""
    # filtered1d: quasi-steady gradient estimate j = h'(x)
    rate = s.eta if s.kind == "filtered1d" else s.a * s.eta / 2.0
    axes = 2 if s.kind == "planar" else 1
    return Field.scaled(-rate, [differentiate(s.h, i) for i in range(axes)])


# `scheme_rhs` and `ideal_flow` are the public names of `scheme_field` and
# `_ideal_field`. The benchmark's tracer (perfbench/tracer.py) rebinds the
# public two to wrappers that return plain functions, so `esgain simulate`
# calls the other two to hand `integrate` a `Field`.
def ideal_flow(s: SchemeInstance) -> Field:
    return _ideal_field(s)

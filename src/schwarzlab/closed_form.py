"""Exact solution families of the fourth-order equation, organised by the
constant value sigma of the Schwarzian along the solution.

Every solution is a Moebius image of one generator with S = sigma, analytic
in sigma:

    G(s) = tan(w s)/w   (sigma > 0, w = sqrt(sigma/2)),
           s            (sigma = 0),
           tanh(k s)/k  (sigma < 0, k = sqrt(-sigma/2)),

with G(0) = G''(0) = 0, G'(0) = 1 and G' = 1 + (sigma/2) G^2.  The public
form MobiusFamily(A, B, C, D, sigma) is u = (A g + B)/(C g + D) in the
generators g(t) = tan(w t), t and e^{2 k t}.  The matrix P(t) of _shift
recentres them on G: g(t + s) = P(t) G(s) as Moebius maps, with

    P(t) = (w cos wt, sin wt; -w sin wt, cos wt),  (1, t; 0, 1)  or
           (k e^{kt}, e^{kt}; -k e^{-kt}, e^{-kt}),  of determinant w, 1, 2k.

With (A B; C D) P(t) = (alpha beta; gamma delta) the member near t is
u(t + s) = u + p G(s)/(1 - c G(s)): u = beta/delta, p = det/delta^2,
c = -gamma/delta.  Its jet is closed form in (p, c, sigma), see
family_eval_jet, and its poles are where G(s) = 1/c.  The family's own
poles are where C g + D = 0; generator_solve gives both.  family_of_jet
inverts the product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularTimeError
from .schwarzian import Jet4, el_rhs, schwarzian
from .symbolics import EXP_ARG_MAX, first_where

# Half-width of the exclusion window around a pole when evaluating jets.
POLE_EPS = 1e-9
# The most solutions generator_solve lists in one window.
MAX_SOLUTIONS = 10 ** 6


@dataclass(frozen=True)
class MobiusFamily:
    """Finite Moebius parameters (A, B, C, D) with AD - BC != 0, plus the
    finite target constant sigma realised by S(u)."""

    A: float
    B: float
    C: float
    D: float
    sigma: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.A, self.B, self.C, self.D, self.sigma)):
            raise ValueError(f"family parameters must be finite, got {self}")
        if self.determinant == 0.0:
            raise ValueError("degenerate Moebius parameters: AD - BC = 0")

    @property
    def determinant(self) -> float:
        return self.A * self.D - self.B * self.C

    @property
    def family_class(self) -> str:
        if self.sigma < 0:
            return "hyperbolic"
        if self.sigma > 0:
            return "elliptic"
        return "parabolic"

    def to_json(self) -> str:
        return json.dumps({"A": self.A, "B": self.B, "C": self.C, "D": self.D, "sigma": self.sigma})

    @classmethod
    def from_json(cls, text: str) -> "MobiusFamily":
        """The family of a JSON object with numbers A, B, C, D and sigma;
        ValueError quotes text that is not JSON and names a missing or
        non-numeric key."""
        # integers parse as floats, so one past the float range reads inf
        try:
            d = json.loads(text, parse_int=float)
        except json.JSONDecodeError as e:
            raise ValueError(f"family JSON is not valid JSON ({e.msg}), got {text}") from None
        if not isinstance(d, dict):
            raise ValueError(f"family JSON must be an object with keys A, B, C, D, sigma, got {text}")
        for key in ("A", "B", "C", "D", "sigma"):
            if key not in d:
                raise ValueError(f"family JSON has no key {key!r}")
            if not isinstance(d[key], float):
                raise ValueError(f"family JSON key {key!r} is not a number: {d[key]!r}")
        return cls(d["A"], d["B"], d["C"], d["D"], d["sigma"])


def _shift(sigma: float, t) -> tuple:
    """(P(t) as (a, b, c, d) row by row, det P) with g(t + s) = P(t) G(s).
    t is a float, or an array of times, whose entries are then arrays."""
    if sigma > 0:
        w = math.sqrt(sigma / 2.0)
        cs, sn = np.cos(w * t), np.sin(w * t)
        return (w * cs, sn, -w * sn, cs), w
    if sigma == 0:
        return (1.0, t, 0.0, 1.0), 1.0
    k = math.sqrt(-sigma / 2.0)
    kt = abs(k * t)
    outside = first_where(kt > EXP_ARG_MAX, kt)
    if outside is not None:
        raise ValueError(f"e^(+-k t) is outside the float range at |k t| = {outside:g}")
    up, down = np.exp(k * t), np.exp(-k * t)
    return (k * up, up, -k * down, down), 2.0 * k


def _member(f: MobiusFamily, t) -> tuple:
    """(u, p, c) of the member u(t + s) = u + p G(s)/(1 - c G(s)) at t, a
    float or an array of times.  Its nearest pole is where G(s) = 1/c, so
    |1/c| < POLE_EPS counts as a pole."""
    (a, b, c, d), det = _shift(f.sigma, t)
    beta, gamma, delta = f.A * b + f.B * d, f.C * a + f.D * c, f.C * b + f.D * d
    pole = first_where(abs(delta) < POLE_EPS * abs(gamma), t)
    if pole is not None:
        raise SingularTimeError(f"pole of the family member within {POLE_EPS:g} of t = {pole}")
    return beta / delta, f.determinant * det / delta / delta, -gamma / delta


def family_derivs(f: MobiusFamily, t) -> tuple:
    """(u, u', u'', u''') of the family member at t, a float or an array of
    times, from the series of G: q = 2pc and r = p (sigma + 6c^2).  On an
    array each element equals the value at that time alone."""
    u, p, c = _member(f, t)
    return u, p, 2.0 * p * c, p * (f.sigma + 6.0 * c * c)


def family_eval_jet(f: MobiusFamily, t) -> Jet4:
    """The 3-jet of the family member at t, a float or an array of times
    (family_derivs)."""
    return Jet4(t, *family_derivs(f, t))


def family_fourth(f: MobiusFamily, t: float) -> float:
    """u''''(t) = 8pc (sigma + 3c^2) of the family member."""
    _, p, c = _member(f, t)
    return 8.0 * p * c * (f.sigma + 3.0 * c * c)


def family_of_jet(jet: Jet4) -> MobiusFamily:
    """The exact solution of the stationarity equation through a jet.

    S is a first integral, so that solution has S identically sigma =
    S(jet).  It is u + p G(s)/(1 - c G(s)) with s = t - jet.t and c =
    q/(2p): the member matrix J = (p - c u, u; -c, 1) acting on G matches
    the 2-jet, and then the third derivative, as S(J G) = S(G) = sigma.
    With G(s) = P(jet.t)^-1 g(t) the family is J adj P(jet.t), where adj P
    = det P * P^-1.  For sigma < 0 it raises ValueError when e^{+-k jet.t}
    leaves the float range: (A, B, C, D) cannot hold that member.
    """
    sigma = schwarzian(jet)
    c = jet.q / (2.0 * jet.p)
    (pa, pb, pc, pd), _ = _shift(sigma, jet.t)
    j11, u = jet.p - c * jet.u, jet.u
    # P's entries are np.float64 for sigma != 0; the family holds plain floats
    return MobiusFamily(*map(float, (j11 * pd - u * pc, u * pa - j11 * pb, -c * pd - pc, c * pb + pa)), sigma)


def generator_solve(sigma: float, num: float, den: float, lo: float, hi: float, public: bool = False) -> list:
    """The s in [lo, hi] where G(s) = num/den, or with public where the
    generator g(s) = tan(ws), s or e^{2ks} of the public form does, ascending:

        sigma > 0:  (atan(x) + k pi) / w,  x = w num/den (G) or num/den (g),
                    with atan(x) = pi/2 when den = 0
        sigma = 0:  num/den
        sigma < 0:  atanh(k num/den) / k  (G, when |k num/den| < 1) or
                    ln(num/den) / (2k)    (g, when num/den > 0).

    A family's poles are where C g + D = 0, so its level -D/C is solved in g:
    read in G it would mix C and D, and tanh(ks) rounds to 1 beyond ks = 19.
    A jet's level 1/c is solved in G, where atanh keeps the digits of a small
    k.  With den = 0 these are the poles of G and g.  A window that is not
    finite, or one that holds more than MAX_SOLUTIONS, raises ValueError."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"need a finite window, got [{lo}, {hi}]")
    if sigma > 0:
        w = math.sqrt(sigma / 2.0)
        phase = math.pi / 2.0 if den == 0.0 else math.atan(num / den if public else w * num / den)
        k0, k1 = math.ceil((w * lo - phase) / math.pi), math.floor((w * hi - phase) / math.pi)
        if k1 - k0 + 1 > MAX_SOLUTIONS:
            raise ValueError(f"the window [{lo}, {hi}] holds {k1 - k0 + 1} solutions, more than {MAX_SOLUTIONS}")
        out = [(phase + k * math.pi) / w for k in range(k0, k1 + 1)]
    elif den == 0.0:
        out = []
    elif sigma == 0:
        out = [num / den]
    elif public:
        x = num / den
        out = []
        if x > 0:
            # for x in [1/2, 2] num - den is exact, and log1p keeps its digits
            lg = math.log1p((num - den) / den) if 0.5 <= x <= 2.0 else math.log(x)
            out = [lg / math.sqrt(-2.0 * sigma)]
    else:
        k = math.sqrt(-sigma / 2.0)
        y = k * num / den
        out = [math.atanh(y) / k] if abs(y) < 1.0 else []
    return [s for s in out if lo <= s <= hi]


def family_poles(f: MobiusFamily, t0: float, t1: float) -> list:
    """The times in [t0, t1] where the family member u itself blows up, the
    zeros of C g + D, ascending.  With C = 0 these are the poles of g; with
    C != 0 a pole of tan(wt) is removable, as u tends to A/C there, and is
    not listed."""
    return generator_solve(f.sigma, -f.D, f.C, t0, t1, public=True)


def family_singularities(f: MobiusFamily, t0: float, t1: float) -> list:
    """All singular times of the family member in [t0, t1], ascending, in
    closed form: the poles of u (family_poles) and, where C != 0, the poles
    of the tan generator.  Those are removable for u and jets evaluate there
    (u = A/C); they stay listed so that callers can keep windows away from
    the generator's poles.  Raises ValueError unless t0 < t1, both finite."""
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
    tan_poles = generator_solve(f.sigma, 1.0, 0.0, t0, t1) if f.C != 0.0 else []
    return sorted(family_poles(f, t0, t1) + tan_poles)


@dataclass(frozen=True)
class VerifyReport:
    """Maximum residuals of a family over a sample window."""

    max_schwarzian_residual: float
    max_ode_residual: float
    samples: int
    window: tuple

    def to_dict(self) -> dict:
        return {
            "max_schwarzian_residual": self.max_schwarzian_residual,
            "max_ode_residual": self.max_ode_residual,
            "samples": self.samples,
            "window": list(self.window),
        }


def family_verify(f: MobiusFamily, samples: int, t0: float, t1: float) -> VerifyReport:
    """Check |S(jet) - sigma| and |u'''' - el_rhs(jet)| on an even sample of
    [t0, t1].  The jets are closed form, so this measures their rounding.
    The window must avoid singular times."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    ts = t0 + (t1 - t0) * np.arange(samples) / (samples - 1)
    jet = family_eval_jet(f, ts)
    max_s = float(np.abs(schwarzian(jet) - f.sigma).max())
    max_f = float(np.abs(family_fourth(f, ts) - el_rhs(jet)).max())
    return VerifyReport(max_s, max_f, samples, (t0, t1))

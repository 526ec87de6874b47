"""Exact solution families of the fourth-order equation, organised by the
constant value sigma of the Schwarzian along the solution.

A family is a Moebius transform of a generator g(t) that realises S(g) =
sigma:

    sigma < 0:  g(t) = exp(a t),    a = sqrt(-2 sigma)   (S(e^{at}) = -a^2/2)
    sigma = 0:  g(t) = t
    sigma > 0:  g(t) = tan(w t),    w = sqrt(sigma / 2)  (S(tan wt) = 2 w^2)

Moebius post-composition leaves the Schwarzian unchanged, so every member of
the family has S identically sigma.  Jets are computed by exact
differentiation of the closed form (Taylor arithmetic on the composite), not
by finite differences.  Conversely every solution of the stationarity
equation is such a member: family_of_jet maps a jet to it, and its singular
times follow in closed form from (A, B, C, D).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import EvalDomainError, SingularTimeError
from .schwarzian import Jet4, el_rhs, schwarzian
from .symbolics import TaylorScalar

# Half-width of the exclusion window around a pole when evaluating jets.
POLE_EPS = 1e-9


@dataclass(frozen=True)
class MobiusFamily:
    """Moebius parameters (A, B, C, D) with AD - BC != 0, plus the target
    constant sigma realised by S(u)."""

    A: float
    B: float
    C: float
    D: float
    sigma: float

    def __post_init__(self):
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
        d = json.loads(text)
        return cls(d["A"], d["B"], d["C"], d["D"], d["sigma"])


def family_series(f: MobiusFamily, t: float, order: int = 4) -> TaylorScalar:
    """Taylor series of the family member u at t; exact differentiation of
    the closed form."""
    tt = TaylorScalar.variable(t, order)
    if f.sigma < 0:
        g = (tt * math.sqrt(-2.0 * f.sigma)).exp()
    elif f.sigma == 0:
        g = tt
    else:
        try:
            g = (tt * math.sqrt(f.sigma / 2.0)).tan()
        except EvalDomainError:
            raise SingularTimeError(f"tan pole at t = {t}") from None
    den = f.C * g + f.D
    if abs(den.coeffs[0]) < POLE_EPS:
        raise SingularTimeError(f"Moebius denominator vanishes at t = {t}")
    return (f.A * g + f.B) / den


def family_eval_jet(f: MobiusFamily, t: float) -> Jet4:
    """The 3-jet of the family member at t."""
    return Jet4.from_series(family_series(f, t, order=3))


def family_fourth(f: MobiusFamily, t: float) -> float:
    """u''''(t) from exact differentiation of the closed form."""
    return family_series(f, t, order=4).derivative(4)


def family_of_jet(jet: Jet4) -> MobiusFamily:
    """The exact solution of the stationarity equation through a jet.

    S is a first integral, so that solution has S identically sigma =
    S(jet) and is a Moebius image M(h) of the generator centered at jet.t,
    h(s) = g(s) with s = t - jet.t.  M(x) = u + m1 y / (1 - c y), y = x - h(0),
    matches the 2-jet with m1 = p / h'(0), m2 = (q - m1 h''(0)) / h'(0)^2 and
    c = m2 / (2 m1); the third derivative then matches because S(M o h) =
    S(h) = sigma.  As a matrix M = (k, u - k h(0); -c, 1 + c h(0)) with
    k = m1 - c u, of determinant m1, nonzero whenever p is.

    The centering is folded into (A, B, C, D): a translation by jet.t for
    g = t, the factor e^{-a jet.t} for g = e^{a t} (so a * jet.t must keep
    it inside the float range), and for g = tan(w t) the rotation by w jet.t,
    tan(w t - w t0) = (g cos w t0 - sin w t0) / (g sin w t0 + cos w t0),
    which divides by no cosine.

    For sigma near 0 but not 0 (~1e-17 in a jet evaluated from a parabolic
    family), A, ..., D grow like 1/sqrt|sigma| and cancel in (A g + B)/(C g
    + D): jets of the result lose about half their digits.
    """
    sigma = schwarzian(jet)
    u, t0 = jet.u, jet.t
    if sigma < 0:
        a = math.sqrt(-2.0 * sigma)  # h = e^{a s}: h(0) = 1, h' = a, h'' = a^2
        m1 = jet.p / a
        c = (jet.q - m1 * a * a) / (2.0 * m1 * a * a)
        k, lam = m1 - c * u, math.exp(-a * t0)
        return MobiusFamily(k * lam, u - k, -c * lam, 1.0 + c, sigma)
    w = 1.0 if sigma == 0 else math.sqrt(sigma / 2.0)  # h = s or tan(w s): h(0) = h'' = 0
    m1 = jet.p / w
    c = jet.q / (2.0 * m1 * w * w)
    k = m1 - c * u
    if sigma == 0:
        return MobiusFamily(k, u - k * t0, -c, 1.0 + c * t0, sigma)
    cs, sn = math.cos(w * t0), math.sin(w * t0)
    return MobiusFamily(k * cs + u * sn, u * cs - k * sn, sn - c * cs, cs + c * sn, sigma)


def _periodic(phase: float, w: float, t0: float, t1: float) -> list:
    """The times (phase + k pi) / w inside [t0, t1], ascending."""
    ks = range(math.ceil((w * t0 - phase) / math.pi), math.floor((w * t1 - phase) / math.pi) + 1)
    return [t for t in ((phase + k * math.pi) / w for k in ks) if t0 <= t <= t1]


def family_poles(f: MobiusFamily, t0: float, t1: float) -> list:
    """The times in [t0, t1] where the family member u itself blows up,
    ascending.  These are the zeros of C g + D,

        sigma < 0:  ln(-D/C) / a                 (only when -D/C > 0)
        sigma = 0:  -D/C
        sigma > 0:  (atan(-D/C) + k pi) / w,

    and, when C = 0, the poles of tan(w t): the last formula with
    atan(-D/C) = pi/2.  With C != 0 a pole of tan(w t) is removable, as u
    tends to A/C there, and is not listed."""
    if f.sigma > 0:
        phase = math.pi / 2.0 if f.C == 0.0 else math.atan(-f.D / f.C)
        return _periodic(phase, math.sqrt(f.sigma / 2.0), t0, t1)
    if f.C == 0.0:
        return []
    x = -f.D / f.C
    if f.sigma == 0:
        ts = [x]
    else:
        ts = [math.log(x) / math.sqrt(-2.0 * f.sigma)] if x > 0 else []
    return [t for t in ts if t0 <= t <= t1]


def family_singularities(f: MobiusFamily, t0: float, t1: float) -> list:
    """All singular times of the family member in [t0, t1], ascending, in
    closed form: the poles of u (family_poles) and, where C != 0, the poles
    of the tan generator, which are removable for u (u -> A/C) but where the
    jets of the closed form are singular."""
    if t0 >= t1:
        raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
    out = family_poles(f, t0, t1)
    if f.sigma > 0 and f.C != 0.0:
        out = sorted(out + _periodic(math.pi / 2.0, math.sqrt(f.sigma / 2.0), t0, t1))
    return out


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
    [t0, t1].  The window must avoid singular times."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    max_s = 0.0
    max_f = 0.0
    for i in range(samples):
        t = t0 + (t1 - t0) * i / (samples - 1)
        s = family_series(f, t, order=4)
        jet = Jet4.from_series(s)
        max_s = max(max_s, abs(schwarzian(jet) - f.sigma))
        max_f = max(max_f, abs(s.derivative(4) - el_rhs(jet)))
    return VerifyReport(max_s, max_f, samples, (t0, t1))

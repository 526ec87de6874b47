"""Pointwise operations on 3-jets: the Schwarzian derivative, companion first
integrals, the fourth-order right-hand side they are conserved along, and the
boundary machinery of the variational identities.

Every operation takes a jet of floats or of equal-length arrays (one entry a
node).  It uses only + - * /, writing q*q and never q**2, whose numpy and
float pow roundings differ, so on arrays entry k equals the operation on the
jet of node k alone.  All operations divide by u', so jets with |p| below
SINGULARITY_EPS are rejected loudly, at the first such node, instead of
returning infinities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SingularJetError
from .symbolics import first_where

SINGULARITY_EPS = 1e-12

# Expression-text twins of the pointwise functions below, for series work.
# EL_FIELD_TEXT is el_rhs's F written in S's own ratio a = q/p, as
# a*(4r - 3q*a): its program shares a's series, so a coefficient costs one
# quotient and two products (the text as el_rhs writes it costs two and
# four), and it forms no q^3, which overflows long before F does.
EL_FIELD_TEXT = "q/p*(4*r - 3*q*(q/p))"
SCHWARZIAN_TEXT = "r/p - 3/2*(q/p)^2"
MERCATOR_TEXT = "(r/p - (q/p)^2)/p"


@dataclass(frozen=True)
class Jet4:
    """A point of the 3-jet space: t, u, and the first three derivatives
    p = u', q = u'', r = u'''.  Each field is a float, or each an array over
    the same nodes."""

    t: float
    u: float
    p: float
    q: float
    r: float

    def as_dict(self) -> dict:
        return {"t": self.t, "u": self.u, "p": self.p, "q": self.q, "r": self.r}

    def as_tuple(self) -> tuple:
        return (self.t, self.u, self.p, self.q, self.r)


@dataclass(frozen=True)
class VarJet:
    """Value and first two derivatives of a variational vector field at a
    point: v, v1 = v', v2 = v''.  Floats, or arrays over the nodes of a jet."""

    v: float
    v1: float
    v2: float


def guarded(j: Jet4) -> tuple:
    """(p, q, r) of j, after raising SingularJetError at the first node
    where |p| < SINGULARITY_EPS, naming its t and |p|."""
    small = abs(j.p) < SINGULARITY_EPS
    t = first_where(small, j.t)
    if t is not None:
        raise SingularJetError(f"|u'| = {first_where(small, abs(j.p)):.3e} below singularity floor at t = {t}")
    return j.p, j.q, j.r


def schwarzian(j: Jet4) -> float:
    """S(u) = u'''/u' - (3/2)(u''/u')^2."""
    p, q, r = guarded(j)
    x = q / p
    return r / p - 1.5 * (x * x)


def mercator_c(j: Jet4) -> float:
    """C(u) = (u')^-1 (u'''/u' - (u''/u')^2), the second first integral."""
    p, q, r = guarded(j)
    x = q / p
    return (r / p - x * x) / p


def lagrangian(j: Jet4) -> float:
    """L(u, u', u'') = (u''/u')^2."""
    p, q, _ = guarded(j)
    x = q / p
    return x * x


def el_rhs(j: Jet4) -> float:
    """The value of u'''' forced by the stationarity equation of L:
    F(p, q, r) = -3 q^3/p^2 + 4 q r / p.

    This is the unique right-hand side along whose flow both schwarzian and
    mercator_c are conserved (d/dt S = F/p - 4qr/p^2 + 3q^3/p^3 = 0 for
    exactly this F).
    """
    p, q, r = guarded(j)
    return -3.0 * (q * q * q) / (p * p) + 4.0 * q * r / p


def d_u(j: Jet4, w: VarJet) -> float:
    """The first-order operator D_u(v) = v' - (u''/u') v."""
    p, q, _ = guarded(j)
    return w.v1 - (q / p) * w.v


def d_u2(j: Jet4, w: VarJet) -> float:
    """The second iterate of d_u, expanded along the curve:
    D_u^2(v) = v'' - 2(q/p) v' + (2 q^2/p^2 - r/p) v."""
    p, q, r = guarded(j)
    return w.v2 - 2.0 * (q / p) * w.v1 + (2.0 * (q * q) / (p * p) - r / p) * w.v


def boundary_B(j: Jet4, w: VarJet) -> float:
    """The endpoint density B = (u')^-1 (D_u^2(v) + S(u) v), equal pointwise
    to v''/u' - 2 u'' v'/(u')^2 + (u'')^2 v / (2 (u')^3)."""
    return (d_u2(j, w) + schwarzian(j) * w.v) / j.p


def boundary_terms(j: Jet4, w: VarJet) -> tuple:
    """The three boundary terms picked up by successive integrations by
    parts of the first variation of the L-functional:

        B0 = 2 q v'/p^2
        B1 = 2 q v'/p^2 - q^2 v / p^3
        B2 = 2 q v'/p^2 - 2 r v / p^2 + 2 q^2 v / p^3
    """
    p, q, r = guarded(j)
    b0 = 2.0 * q * w.v1 / (p * p)
    b1 = b0 - (q * q) * w.v / (p * p * p)
    b2 = b0 - 2.0 * r * w.v / (p * p) + 2.0 * (q * q) * w.v / (p * p * p)
    return (b0, b1, b2)

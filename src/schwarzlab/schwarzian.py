"""Pointwise operations on 3-jets: the Schwarzian derivative, companion first
integrals, the fourth-order right-hand side they are conserved along, and the
boundary machinery of the variational identities.

All operations divide by u', so jets with |p| below SINGULARITY_EPS are
rejected loudly instead of returning infinities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SingularJetError

SINGULARITY_EPS = 1e-12

# Expression-text twins of the pointwise functions below, for series work.
EL_FIELD_TEXT = "-3*q^3/p^2 + 4*q*r/p"
SCHWARZIAN_TEXT = "r/p - 3/2*(q/p)^2"
MERCATOR_TEXT = "(r/p - (q/p)^2)/p"


@dataclass(frozen=True)
class Jet4:
    """A point of the 3-jet space: t, u, and the first three derivatives
    p = u', q = u'', r = u'''."""

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
    point: v, v1 = v', v2 = v''."""

    v: float
    v1: float
    v2: float


def _guard(t: float, p: float) -> None:
    if abs(p) < SINGULARITY_EPS:
        raise SingularJetError(f"|u'| = {abs(p):.3e} below singularity floor at t = {t}")


def schwarzian(j: Jet4) -> float:
    """S(u) = u'''/u' - (3/2)(u''/u')^2."""
    return schwarzian_at(j.t, j.p, j.q, j.r)


def schwarzian_at(t: float, p: float, q: float, r: float) -> float:
    """schwarzian() from the numbers of a jet at t.  For code that holds the
    jets of a panel of nodes as arrays and reads them node by node, where a
    Jet4 a node would cost more than the formula."""
    _guard(t, p)
    return r / p - 1.5 * (q / p) ** 2


def mercator_c(j: Jet4) -> float:
    """C(u) = (u')^-1 (u'''/u' - (u''/u')^2), the second first integral."""
    _guard(j.t, j.p)
    return (j.r / j.p - (j.q / j.p) ** 2) / j.p


def lagrangian(j: Jet4) -> float:
    """L(u, u', u'') = (u''/u')^2."""
    return lagrangian_at(j.t, j.p, j.q)


def lagrangian_at(t: float, p: float, q: float) -> float:
    """lagrangian() from the numbers of a jet at t, as schwarzian_at."""
    _guard(t, p)
    return (q / p) ** 2


def el_rhs(j: Jet4) -> float:
    """The value of u'''' forced by the stationarity equation of L:
    F(p, q, r) = -3 q^3/p^2 + 4 q r / p.

    This is the unique right-hand side along whose flow both schwarzian and
    mercator_c are conserved (d/dt S = F/p - 4qr/p^2 + 3q^3/p^3 = 0 for
    exactly this F).
    """
    _guard(j.t, j.p)
    return -3.0 * j.q ** 3 / j.p ** 2 + 4.0 * j.q * j.r / j.p


def d_u(j: Jet4, w: VarJet) -> float:
    """The first-order operator D_u(v) = v' - (u''/u') v."""
    _guard(j.t, j.p)
    return w.v1 - (j.q / j.p) * w.v


def d_u2(j: Jet4, w: VarJet) -> float:
    """The second iterate of d_u, expanded along the curve:
    D_u^2(v) = v'' - 2(q/p) v' + (2 q^2/p^2 - r/p) v."""
    _guard(j.t, j.p)
    p, q, r = j.p, j.q, j.r
    return w.v2 - 2.0 * (q / p) * w.v1 + (2.0 * q ** 2 / p ** 2 - r / p) * w.v


def boundary_B(j: Jet4, w: VarJet) -> float:
    """The endpoint density B = (u')^-1 (D_u^2(v) + S(u) v), equal pointwise
    to v''/u' - 2 u'' v'/(u')^2 + (u'')^2 v / (2 (u')^3)."""
    _guard(j.t, j.p)
    return (d_u2(j, w) + schwarzian(j) * w.v) / j.p


def boundary_terms(j: Jet4, w: VarJet) -> tuple:
    """The three boundary terms picked up by successive integrations by
    parts of the first variation of the L-functional:

        B0 = 2 q v'/p^2
        B1 = 2 q v'/p^2 - q^2 v / p^3
        B2 = 2 q v'/p^2 - 2 r v / p^2 + 2 q^2 v / p^3
    """
    _guard(j.t, j.p)
    p, q, r = j.p, j.q, j.r
    b0 = 2.0 * q * w.v1 / p ** 2
    b1 = b0 - q ** 2 * w.v / p ** 3
    b2 = b0 - 2.0 * r * w.v / p ** 2 + 2.0 * q ** 2 * w.v / p ** 3
    return (b0, b1, b2)

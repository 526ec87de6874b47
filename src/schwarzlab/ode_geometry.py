"""Generic contact-invariant engine for fourth-order ODEs u'''' = F(t,u,p,q,r):
the two generalized Wuenschmann invariants W0 and W1, and linearization along
a base solution.

Total derivatives of the partials F_p, F_q, F_r along the prolonged flow are
read off Taylor series of the formal solution through the jet, so the
invariants are exact to machine precision (no finite differences).  The k-th
total derivative of G is k! times coefficient k of G composed with the flow
series.  One flow series per jet serves both invariants: it is built once,
F_r, F_q and F_p are each evaluated on it once, and W0 and W1 are read off
the same coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .closed_form import MobiusFamily, family_eval_jet
from .el_ode import Trajectory
from .schwarzian import EL_FIELD_TEXT, Jet4, schwarzian
from .symbolics import Expr, differentiate, eval_scalar, formal_solution, parse, taylor_eval, variables_of
from .variation import ExprVariation

# The highest total derivative read is d3F_r, coefficient 3 of F_r.  F_r
# reads r through that coefficient, so u through coefficient 6: an order-6
# flow series holds exactly what W0 and W1 need, and a longer one would give
# the same low coefficients.
TAYLOR_ORDER = 6


@dataclass(frozen=True)
class OdeField:
    """A fourth-order right-hand side with its precomputed symbolic partials
    with respect to p, q, r."""

    F: Expr
    Fp: Expr
    Fq: Expr
    Fr: Expr

    @classmethod
    def from_expression(cls, source: Union[str, Expr]) -> "OdeField":
        F = parse(source) if isinstance(source, str) else source
        unknown = variables_of(F) - {"t", "u", "p", "q", "r"}
        if unknown:
            raise ValueError(f"field references unknown variables {sorted(unknown)}")
        return cls(F, differentiate(F, "p"), differentiate(F, "q"), differentiate(F, "r"))


def el_field() -> OdeField:
    """The field of the Schwarzian stationarity equation."""
    return OdeField.from_expression(EL_FIELD_TEXT)


def _wuenschmann(field: OdeField, j: Jet4) -> tuple:
    """(W0, W1) at j, the formulas of w0 and w1, from one flow series through
    j: the k-th total derivative of G is k! times coefficient k of G
    evaluated on it."""
    env = formal_solution(field.F, j, TAYLOR_ORDER)
    series_r, series_q = taylor_eval(field.Fr, env), taylor_eval(field.Fq, env)
    fr, dfr, d2fr, d3fr = (series_r.derivative(k) for k in range(4))
    fq, dfq, d2fq = (series_q.derivative(k) for k in range(3))
    fp = taylor_eval(field.Fp, env).derivative(0)
    W0 = (
        (11.0 / 1600.0) * fr ** 4
        - 0.18 * fr ** 2 * dfr
        - 0.005 * fr ** 2 * fq
        + 0.21 * dfr ** 2
        + 0.02 * dfr * fq
        - 0.09 * fq ** 2
        + 0.35 * fr * d2fr
        - 0.2 * d3fr
        + 0.3 * d2fq
        - 0.25 * fr * dfq
    )
    W1 = (
        2.25 * fr * dfr
        - 1.5 * d2fr
        + 3.0 * dfq
        - 0.375 * fr ** 3
        - 1.5 * fq * fr
        - 3.0 * fp
    )
    return W0, W1


def w1(field: OdeField, j: Jet4) -> float:
    """First generalized Wuenschmann invariant:

    W1 = (9/4) F_r dF_r - (3/2) d2F_r + 3 dF_q - (3/8) F_r^3
         - (3/2) F_q F_r - 3 F_p
    """
    return _wuenschmann(field, j)[1]


def w0(field: OdeField, j: Jet4) -> float:
    """Second generalized Wuenschmann invariant:

    W0 = (11/1600) F_r^4 - (9/50) F_r^2 dF_r - (1/200) F_r^2 F_q
         + (21/100) (dF_r)^2 + (1/50) dF_r F_q - (9/100) F_q^2
         + (7/20) F_r d2F_r - (1/5) d3F_r + (3/10) d2F_q - (1/4) F_r dF_q
    """
    return _wuenschmann(field, j)[0]


def invariants_at(field: OdeField, j: Jet4, with_schwarzian: bool = False) -> dict:
    """JSON-ready invariant record for one jet."""
    W0, W1 = _wuenschmann(field, j)
    row = {"jet": list(j.as_tuple()), "W0": W0, "W1": W1}
    if with_schwarzian:
        row["S"] = schwarzian(j)
    return row


BaseSolution = Union[MobiusFamily, Trajectory]


def _base_jet(base: BaseSolution, t: float) -> Jet4:
    if isinstance(base, MobiusFamily):
        return family_eval_jet(base, t)
    if isinstance(base, Trajectory):
        return base.jet_at(t)
    raise TypeError(f"base must be a MobiusFamily or Trajectory, got {type(base).__name__}")


def linearize(field: OdeField, base: BaseSolution, t: float) -> tuple:
    """Coefficients (a1, a2, a3) of the linearized equation
    v'''' = a3 v''' + a2 v'' + a1 v' along the base solution at time t;
    by construction a1 = F_p, a2 = F_q, a3 = F_r on the base jet."""
    jet = _base_jet(base, t)
    return (
        eval_scalar(field.Fp, jet),
        eval_scalar(field.Fq, jet),
        eval_scalar(field.Fr, jet),
    )


@dataclass(frozen=True)
class LinearizedOde:
    """The linear fourth-order equation governing infinitesimal perturbations
    of a fixed base solution; linearize gives its coefficients at each t."""

    field: OdeField
    base: BaseSolution


def verify_linear_basis(lin: LinearizedOde, basis: Sequence, ts: Sequence) -> float:
    """Max residual |v'''' - a3 v''' - a2 v'' - a1 v'| over basis x ts.
    Basis functions are t-only expressions (strings or Expr trees), each
    read through one ExprVariation."""
    fns = [ExprVariation(fn) for fn in basis]
    worst = 0.0
    for t in ts:
        a1, a2, a3 = linearize(lin.field, lin.base, t)
        for v in fns:
            _, v1, v2, v3 = v.derivs3(t)
            worst = max(worst, abs(v.fourth(t) - a3 * v3 - a2 * v2 - a1 * v1))
    return worst

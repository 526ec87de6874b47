"""Numerical variational calculus for the two functionals of the package:
the quadratic functional I_L = int (u''/u')^2 dt and the Schwarzian
functional I_S = int S(u) dt.

Provides one hierarchy of functions of t with exact derivatives: a
variation (VariationFn) gives v and its first three derivatives, and a curve
(CurveFn) is a variation on a domain, where u' != 0, whose derivatives are
read as a jet.  So any sum of curves and variations is a LinearCombination.
On top of it: the first variation in all its equivalent integral forms (with
their boundary terms kept separate), a finite-difference cross-check on the
jets of u + s*v, the integrating-factor solver for D_u(v) = phi, the
admissible-variation construction that meets the second-order endpoint
condition, and the resulting critical-point test.

Every integral here runs on one panel rule (_panels): the interval is split
at the integrand's breakpoints and each panel is bisected until the two
trailing coefficients of its CHEB_N-point Chebyshev interpolant are
negligible; the panel's integral is then exact for that interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebpts1, chebval, chebvander

from .closed_form import MobiusFamily, family_derivs, family_fourth, family_poles
from .el_ode import Trajectory
from .errors import InfeasibleVariationError, QuadratureError, SingularJetError, SingularTimeError
from .schwarzian import Jet4, VarJet, boundary_B, boundary_terms, d_u, el_rhs, guarded, lagrangian, schwarzian
from .symbolics import Expr, TaylorScalar, first_where, parse, taylor_eval, variables_of

CURVE_P_FLOOR = 1e-8
# relative rounding allowed in u between two samples of the regularity check
CURVE_U_ROUNDING = 1e-12
# points of the regularity check, both ends of the domain among them
CURVE_GRID = 101

# DuSolution.residual: DU_CHECK_N points, v' by a central difference of step DU_CHECK_H
DU_CHECK_N = 64
DU_CHECK_H = 1e-4
# AdmissibleVariation.glue_bound: points on the glue
GLUE_CHECK_N = 33

FORMS = ("direct", "by_parts", "du_factored", "schwarzian")

# critical_test: each probe's glue is CRITICAL_EPS times the domain's length
# wide, and a probe with |delta| > CRITICAL_THRESHOLD is a witness
CRITICAL_EPS = 0.05
CRITICAL_THRESHOLD = 1e-4

# Chebyshev panels: CHEB_N nodes each; a panel is bisected until its two trailing
# coefficients are <= CHEB_TAIL * the largest initial coefficient
CHEB_N = 20
CHEB_TAIL = 1e-13
CHEB_MAX_PANELS = 500
# absolute floor of that test in _quad, so an integrand of pure rounding noise
# (du_factored on an S = 0 curve) is accepted
QUAD_EPS = 1e-12

_CHEB_NODES = chebpts1(CHEB_N)
# values at the nodes -> coefficients, as chebinterpolate computes them
_CHEB_FIT = chebvander(_CHEB_NODES, CHEB_N - 1).T * (2.0 / CHEB_N)
_CHEB_FIT[0] /= 2.0
# coefficients -> those of the antiderivative that vanishes at -1
_CHEB_INT = chebint(np.eye(CHEB_N), lbnd=-1.0)


def _panels(sample, a: float, b: float, breakpoints, floor: float = 0.0) -> list:
    """Chebyshev panels that resolve an integrand on [a, b], left to right.

    sample(ts) gives the integrand at the nodes ts of a panel, one row a node
    (one column an integrand).  [a, b] is split at the breakpoints inside it,
    and each panel is bisected until its two trailing coefficients are <=
    max(CHEB_TAIL * scale, floor), scale the largest coefficient of the
    initial panels.  Returns (lo, hi, coefficients of the antiderivative on
    [lo, hi] that vanishes at lo) per panel; its value at hi is its sum, as
    T_j(1) = 1.  Raises QuadratureError on a panel whose coefficients are
    not finite, and past CHEB_MAX_PANELS panels."""
    def fit(lo, hi):
        return _CHEB_FIT @ sample(0.5 * (lo + hi) + 0.5 * (hi - lo) * _CHEB_NODES)

    edges = sorted({a, b} | {float(x) for x in breakpoints if a < x < b})
    # leftmost panel last, so pop() walks the interval from a to b
    stack = [(lo, hi, fit(lo, hi)) for lo, hi in reversed(list(zip(edges[:-1], edges[1:])))]
    tol = max(CHEB_TAIL * max((np.abs(coef).max() for *_, coef in stack), default=0.0), floor)
    done = []
    while stack:
        lo, hi, coef = stack.pop()
        tail = np.abs(coef[-2:]).max()
        if not math.isfinite(tail):
            raise QuadratureError(f"quadrature over [{a:g}, {b:g}]: the integrand is not finite "
                                  f"on the panel [{lo:g}, {hi:g}]", tail * (hi - lo))
        if tail > tol:
            if len(done) + len(stack) >= CHEB_MAX_PANELS:
                raise QuadratureError(f"quadrature over [{a:g}, {b:g}] did not converge: not resolved in "
                                      f"{CHEB_MAX_PANELS} Chebyshev panels near t = {lo:g}", tail * (hi - lo))
            m = 0.5 * (lo + hi)
            stack += [(m, hi, fit(m, hi)), (lo, m, fit(lo, m))]
            continue
        done.append((lo, hi, 0.5 * (hi - lo) * (_CHEB_INT @ coef)))
    return done


def _quad(fn, a, b, breakpoints=()):
    """int_a^b f(t) dt, where fn(ts) gives f at a 1-D array of nodes, as the
    sum of the _panels integrals, with the absolute floor QUAD_EPS on the
    trailing coefficients."""
    if b < a:
        return -_quad(fn, b, a, breakpoints)
    return float(sum(antideriv.sum() for *_, antideriv in _panels(fn, a, b, breakpoints, QUAD_EPS)))


def _rows(values, t):
    """derivs' result at t from its four values: the tuple of them as Python
    floats at a float t, and at an array t the array of shape (4, len(t))
    whose rows they are, each a float or an array over t."""
    if not isinstance(t, np.ndarray):
        return tuple(map(float, values))
    out = np.empty((4, len(t)))
    for row, x in zip(out, values):
        row[...] = x
    return out


def _regularity_grid(t0: float, t1: float):
    """The CURVE_GRID equally spaced points of [t0, t1] that the regularity check reads."""
    return t0 + (t1 - t0) * np.arange(CURVE_GRID) / (CURVE_GRID - 1)


def _refuse_irregular(name: str, ts, us, ps) -> None:
    """Raise SingularJetError unless the curve called name, with values us and
    slopes ps at the increasing points ts, is finite there, keeps |u'| >=
    CURVE_P_FLOOR, keeps the sign of u', and never moves u against that sign
    between two points: by the mean value theorem a continuous u cannot, so a
    pole lies between them."""
    t = first_where(~(np.isfinite(us) & np.isfinite(ps)), ts)
    if t is not None:
        raise SingularJetError(f"curve {name} is not finite at t = {t}")
    last_sign, last_u = 0.0, 0.0
    for t, u, p in zip(ts.tolist(), us.tolist(), ps.tolist()):
        if abs(p) < CURVE_P_FLOOR:
            raise SingularJetError(f"curve {name} has |u'| = {abs(p):.2e} at t = {t}")
        sign = math.copysign(1.0, p)
        if last_sign and sign != last_sign:
            raise SingularJetError(f"curve {name} has u' changing sign near t = {t}")
        if last_sign and sign * (u - last_u) < -CURVE_U_ROUNDING * max(abs(u), abs(last_u)):
            raise SingularJetError(
                f"curve {name} has u moving against the sign of u' near t = {t}: a pole lies in its domain"
            )
        last_sign, last_u = sign, u


# ---------------------------------------------------------------------------
# Functions of t.  A variation has derivatives to order 3; a curve is a
# variation on a domain, with u' != 0 there and its derivatives read as a jet.
# ---------------------------------------------------------------------------

class VariationFn:
    """Base class of every function of t here.  derivs(t) is the one method
    a subclass provides; value and var_jet read it."""

    breakpoints: tuple = ()

    def derivs(self, t):
        """(v, v', v'', v''') at t.  At a float t, four floats; at a 1-D float
        array t, an array of shape (4, len(t)) whose column k == derivs(t[k]),
        so a panel of nodes is read in one call."""
        raise NotImplementedError

    def value(self, t):
        return self.derivs(t)[0]

    def var_jet(self, t: float) -> VarJet:
        v0, v1, v2, _ = self.derivs(t)
        return VarJet(v0, v1, v2)

    def describe(self) -> str:
        return type(self).__name__


class ExprVariation(VariationFn):
    """Variation given by an expression in t alone; derivatives via Taylor
    arithmetic, so they are exact."""

    def __init__(self, source: Union[str, Expr]):
        self.expr = parse(source) if isinstance(source, str) else source
        extra = variables_of(self.expr) - {"t"}
        if extra:
            raise ValueError(f"expression may only reference t, found {sorted(extra)}")
        self.text = str(self.expr)

    def derivs(self, t):
        # at an array, one batch of series based at every node
        s = taylor_eval(self.expr, {"t": TaylorScalar.variable(t, 3)})
        return _rows((s.coeffs[0], s.derivative(1), s.derivative(2), s.derivative(3)), t)

    def fourth(self, t):
        return taylor_eval(self.expr, {"t": TaylorScalar.variable(t, 4)}).derivative(4)

    def describe(self) -> str:
        return f"expr:{self.text}"


@dataclass(frozen=True)
class BumpFn(VariationFn):
    """Smooth compactly supported profile amplitude * exp(-1/(1-x^2)) with
    x = (t - center)/radius; vanishes to all orders at the support boundary."""

    center: float
    radius: float
    amplitude: float = 1.0

    @property
    def support(self) -> tuple:
        return (self.center - self.radius, self.center + self.radius)

    @property
    def breakpoints(self) -> tuple:
        return self.support

    def _x(self, t):
        return (t - self.center) * (1.0 / self.radius)

    def value(self, t):
        """derivs(t)[0] at a float or an array t: the same formula read at
        order 0, at a fraction of the cost of the series.  It is 0 outside
        the support, where 1 stands in for 1 - x^2 <= 1e-12 as the divisor."""
        x = self._x(t)
        s = 1.0 - x * x
        inside = s > 1e-12
        return self.amplitude * np.exp(-1.0 / np.where(inside, s, 1.0)) * inside

    def derivs(self, t):
        x0 = self._x(t)
        inside = 1.0 - x0 * x0 > 1e-12
        if isinstance(t, np.ndarray):
            # where the bump vanishes, the series is taken at the centre and zeroed
            at = np.where(inside, t, self.center)
        elif inside:
            at = t
        else:
            return (0.0, 0.0, 0.0, 0.0)
        x = self._x(TaylorScalar.variable(at, 3))
        psi = (-(1.0 / (1.0 - x * x))).exp() * self.amplitude
        values = (psi.coeffs[0], psi.derivative(1), psi.derivative(2), psi.derivative(3))
        return _rows([d * inside for d in values], t)

    def describe(self) -> str:
        return f"bump(center={self.center:g},radius={self.radius:g},amplitude={self.amplitude:g})"


class LinearCombination(VariationFn):
    """sum_i coef_i * v_i of existing variations (curves among them)."""

    def __init__(self, terms: Sequence):
        self.terms = [(float(c), v) for c, v in terms]
        bps = []
        for _, v in self.terms:
            bps.extend(v.breakpoints)
        self.breakpoints = tuple(bps)

    def derivs(self, t):
        # whole arrays, (4,) or (4, len(t)): row by row costs 4x the time
        out = np.zeros((4,) + np.shape(t))
        for c, v in self.terms:
            out += c * np.asarray(v.derivs(t))
        return _rows(out, t)


class CurveFn(VariationFn):
    """A curve is a variation on a domain: a function of t whose (u, u',
    u'', u''') is its jet, on a finite domain t0 < t1 where u' != 0.

    jet(t) reads derivs(t), which a subclass provides as every function of
    t does.  A subclass sets its domain through _set_domain, which refuses
    one that is not finite with t0 < t1, or on which the regularity grid
    would overflow, before anything is evaluated; _check_regular then reads
    the curve on that grid in one derivs call (so an evaluation error
    anywhere on it is raised as it is) and applies _refuse_irregular."""

    domain: tuple

    def jet(self, t: float) -> Jet4:
        return Jet4(t, *self.derivs(t))

    def _set_domain(self, domain: tuple) -> None:
        t0, t1 = float(domain[0]), float(domain[1])
        if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
            raise ValueError(f"curve {self.describe()} needs a finite domain t0 < t1, got [{t0}, {t1}]")
        if not math.isfinite((t1 - t0) * (CURVE_GRID - 1)):
            raise ValueError(f"curve {self.describe()} needs a domain whose length times {CURVE_GRID - 1} "
                             f"is finite, got [{t0}, {t1}]")
        self.domain = (t0, t1)

    def _check_regular(self) -> None:
        ts = _regularity_grid(*self.domain)
        us, ps = self.derivs(ts)[:2]
        _refuse_irregular(self.describe(), ts, us, ps)


class MobiusCurve(CurveFn):
    """Closed-form family member restricted to a pole-free window."""

    def __init__(self, family: MobiusFamily, domain: tuple):
        self.family = family
        self._set_domain(domain)
        poles = family_poles(family, *self.domain)
        if poles:
            raise SingularTimeError(f"curve {self.describe()} has a pole in its domain at t = {poles[0]}")
        self._check_regular()

    def derivs(self, t):
        return _rows(family_derivs(self.family, t), t)

    def fourth(self, t):
        return family_fourth(self.family, t)

    def describe(self) -> str:
        f = self.family
        return f"mobius(A={f.A:g},B={f.B:g},C={f.C:g},D={f.D:g},sigma={f.sigma:g})"


class ExprCurve(ExprVariation, CurveFn):
    """Curve given by an expression in t alone: an ExprVariation on a
    domain, so its derivatives are exact."""

    def __init__(self, source: Union[str, Expr], domain: tuple):
        super().__init__(source)
        self._set_domain(domain)
        self._check_regular()


class TrajectoryCurve(CurveFn):
    """Integrated solution used as a curve on the span of its run, through
    its dense output.  The fourth derivative comes from the equation itself."""

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self._set_domain(sorted((traj.t_start, traj.t_final)))
        self._check_regular()

    def derivs(self, t):
        return _rows(self.traj.jet_at(t).as_tuple()[1:], t)

    def fourth(self, t):
        return el_rhs(self.jet(t))

    def describe(self) -> str:
        return f"trajectory(tol={self.traj.tolerance:g})"


class DuSolution(VariationFn):
    """Integrating-factor solution of D_u(v) = phi on u's domain [t0, t1]:

        v(t) = u'(t) * (k0 + W(t)),   k0 = v0 / u'(t0),   W(t) = int_t0^t phi/u' dtau

    (u' spans the kernel of D_u, and D_u(u' W) = u' W' = phi).  W is the
    running integral of Chebyshev interpolants of phi/u' on the panels of
    _panels, the rule every integral of this module uses, split at phi's
    breakpoints.  Their test has no absolute floor, so W is resolved relative
    to phi/u' at any scale.  Since D_u(v) = phi, the Schwarzian form of
    delta I_S along v integrates S(u) phi/u'; that integral comes from the
    same panel jets as `schwarzian_integral`.
    """

    def __init__(self, u: CurveFn, phi: VariationFn, v0: float):
        self.u = u
        self.phi = phi
        self.t0, self.t1 = u.domain
        self.k0 = float(v0) / u.jet(self.t0).p
        self.breakpoints = tuple(phi.breakpoints)

        def sample(ts):
            # u is evaluated, in one batch, only where phi does not vanish
            phi_ts = phi.value(ts)
            live = phi_ts != 0.0
            fg = np.zeros((len(ts), 2))
            if live.any():
                j, f = u.jet(ts[live]), phi_ts[live]
                s = schwarzian(j)  # its guard runs before anything divides by u'
                fg[live, 0], fg[live, 1] = f / j.p, s * f / j.p
            return fg

        self._pieces = []
        total = np.zeros(2)  # running (W, int S phi/u')
        for a, b, antideriv in _panels(sample, self.t0, self.t1, phi.breakpoints):
            self._pieces.append((a, b, float(total[0]), antideriv[:, 0]))
            total += antideriv.sum(axis=0)
        self._lefts = np.array([a for a, *_ in self._pieces])
        self.schwarzian_integral = float(total[1])

    def _cumulative(self, ts):
        """W at a float, or at the nodes of a 1-D array ts, clamped to [t0, t1]."""
        if not isinstance(ts, np.ndarray):
            return float(self._cumulative(np.array([ts]))[0])
        ts = np.clip(ts, self.t0, self.t1)
        piece = np.maximum(np.searchsorted(self._lefts, ts, side="right") - 1, 0)
        out = np.empty(len(ts))
        for i in np.unique(piece).tolist():
            a, b, w, antideriv = self._pieces[i]
            at = piece == i
            out[at] = w + chebval((2.0 * ts[at] - a - b) / (b - a), antideriv)
        return out

    def derivs(self, t):
        _, p, q, r = self.u.derivs(t)
        f0, f1, f2, _ = self.phi.derivs(t)
        w = self.k0 + self._cumulative(t)
        v = p * w
        v1 = q * w + f0
        v2 = r * w + q * f0 / p + f1
        v3 = (
            self.u.fourth(t) * w
            + 2.0 * r * f0 / p
            + q * (f1 * p - f0 * q) / (p * p)
            + f2
        )
        return _rows((v, v1, v2, v3), t)

    def residual(self) -> float:
        """max |D_u(v) - phi| on DU_CHECK_N points, with v' recomputed by a
        fourth-order central difference of v = u' (k0 + W) of step
        DU_CHECK_H, so the check is independent of the derivative formulas
        in derivs."""
        n, h = DU_CHECK_N, DU_CHECK_H
        a, b = self.t0 + 2 * h, self.t1 - 2 * h
        if b < a:
            raise ValueError(f"domain [{self.t0:g}, {self.t1:g}] is narrower than the D_u check's stencil, "
                             f"4h = {4 * h:g}")
        ts = a + (b - a) * np.arange(n) / (n - 1)
        # the four stencil points of every t, then t itself, in one batch
        nodes = np.concatenate([ts + k * h for k in (-2, -1, 1, 2)] + [ts])
        _, p, q, _ = self.u.derivs(nodes).reshape(4, 5, n)
        w = (self.k0 + self._cumulative(nodes)).reshape(5, n)
        vals = p[:4] * w[:4]
        v1_fd = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
        du = v1_fd - q[4] * w[4]
        return max([0.0] + np.abs(du - self.phi.value(ts)).tolist())

    def describe(self) -> str:
        return f"du_solution({self.phi.describe()})"


def solve_du(u: CurveFn, phi: VariationFn, v0: float) -> DuSolution:
    """Solve the first-order equation D_u(v) = phi on u's domain [t0, t1]
    with v(t0) = v0."""
    return DuSolution(u, phi, v0)


class AdmissibleVariation(VariationFn):
    """v + vhat where v solves D_u(v) = phi with v(t0) = 0 and vhat is a
    parabola glue c*(t - t0 - eps)^2 supported on [t0, t0 + eps], joined C1
    to zero, with c chosen so the second-order endpoint condition
    (D_u^2 + S(u) * id) has equal boundary density at both ends."""

    def __init__(self, u: CurveFn, phi: VariationFn, eps: float, base: DuSolution, c: float):
        self.u = u
        self.phi = phi
        self.eps = float(eps)
        self.base = base
        self.c = float(c)
        self.t0, self.t1 = base.t0, base.t1
        self.join = self.t0 + self.eps
        self.breakpoints = tuple(base.breakpoints) + (self.join,)

    def _glue(self, t) -> tuple:
        """(vhat, vhat', vhat'', vhat''') at a float or an array t; on is
        False, so each is 0, past the join."""
        on = t <= self.join
        d = (t - self.join) * on
        return (self.c * d * d, 2.0 * self.c * d, 2.0 * self.c * on, 0.0)

    def derivs(self, t):
        return _rows([x + y for x, y in zip(self.base.derivs(t), self._glue(t))], t)

    def glue_bound(self) -> float:
        """K such that max(|vhat|, |D_u(vhat)|) <= K * eps on GLUE_CHECK_N
        points of the glue."""
        ts = self.t0 + self.eps * np.arange(GLUE_CHECK_N) / (GLUE_CHECK_N - 1)
        g0, g1, _, _ = self._glue(ts)
        _, p, q, _ = self.u.derivs(ts)
        return float(max(np.abs(g0).max(), np.abs(g1 - (q / p) * g0).max())) / self.eps

    def delta_IS(self) -> float:
        """sum(delta_form("schwarzian", u, self, t0, t1)) as a linear functional:
        D_u(v + vhat) = phi + D_u(vhat), so it is base.schwarzian_integral
        + int_t0^{t0+eps} S(u) D_u(vhat)/u' dt + B |_t0^t1."""
        def glue(ts):
            j = self.u.jet(ts)
            return schwarzian(j) * d_u(j, VarJet(*self._glue(ts)[:3])) / j.p

        return (self.base.schwarzian_integral
                + _quad(glue, self.t0, self.join, self.u.breakpoints)
                + self.endpoint_term)

    @cached_property
    def endpoint_term(self) -> float:
        """B |_t0^t1 of the combined variation, evaluated directly, once."""
        return _boundary("schwarzian", self.u, self, self.t0, self.t1)

    def endpoint_residual(self) -> float:
        """|B(t1) - B(t0)| of the combined variation."""
        return abs(self.endpoint_term)

    def describe(self) -> str:
        return f"admissible({self.phi.describe()}, eps={self.eps:g}, c={self.c:g})"


def admissible_variation(u: CurveFn, phi: VariationFn, eps: float) -> AdmissibleVariation:
    """Construct the admissible variation for a bump (or combination of
    bumps) phi supported in (t0 + eps, t1)."""
    t0, t1 = u.domain
    support = getattr(phi, "support", None)
    if support is None:
        if not phi.breakpoints:
            raise ValueError("phi must be compactly supported (a bump or combination of bumps)")
        support = (min(phi.breakpoints), max(phi.breakpoints))
    lo, hi = support
    if not (t0 + eps < lo and hi < t1):
        raise ValueError(
            f"bump support [{lo:g}, {hi:g}] must lie inside ({t0 + eps:g}, {t1:g})"
        )
    base = solve_du(u, phi, 0.0)
    b_end = boundary_B(u.jet(t1), base.var_jet(t1))
    jet0 = u.jet(t0)
    p, q = jet0.p, jet0.q
    # boundary density of the glue at t0 is c * gain; only * and /, so a
    # large eps gives an infinite gain rather than OverflowError
    x = (q / p) * eps
    gain = (2.0 + 4.0 * x + (x * x) / 2.0) / p
    if not math.isfinite(gain) or abs(gain) < 1e-12:
        raise InfeasibleVariationError(
            f"endpoint condition cannot be solved for the glue coefficient (gain = {gain:.3e})"
        )
    return AdmissibleVariation(u, phi, eps, base, b_end / gain)


# ---------------------------------------------------------------------------
# Functionals and their first variations
# ---------------------------------------------------------------------------

def functional_IL(u: CurveFn, t0: float, t1: float) -> float:
    """Quadrature of (u''/u')^2 over [t0, t1]."""
    return _quad(lambda ts: lagrangian(u.jet(ts)), t0, t1, u.breakpoints)


def functional_IS(u: CurveFn, t0: float, t1: float) -> float:
    """Quadrature of S(u) over [t0, t1].  Equals the boundary difference of
    u''/u' minus half of functional_IL (checked in the test suite)."""
    return _quad(lambda ts: schwarzian(u.jet(ts)), t0, t1, u.breakpoints)


# the density of each functional, integrated by delta_fd
_FUNCTIONALS = {"I_L": lagrangian, "I_S": schwarzian}


def delta_fd(which: str, u: CurveFn, v: VariationFn, h: float = 1e-5,
             richardson: bool = False) -> float:
    """Central finite-difference first variation (I[u+hv] - I[u-hv]) / (2h)
    over u's domain.  With richardson=True the h and h/2 stencils are
    combined for fourth-order accuracy.

    The jet of u + s*v is the jet of u plus s times that of v, so no curve
    is built: u and v are read once on the regularity grid, where every
    u + s*v must pass the curve check, and once per panel of one _panels
    walk that integrates the density of every u + s*v as a column."""
    if which not in _FUNCTIONALS:
        raise ValueError(f"unknown functional {which!r}; expected one of {tuple(_FUNCTIONALS)}")
    density = _FUNCTIONALS[which]
    t0, t1 = u.domain
    steps = (h, h / 2.0) if richardson else (h,)
    signed = [x for step in steps for x in (step, -step)]

    ts = _regularity_grid(t0, t1)
    ju, jv = u.derivs(ts), v.derivs(ts)
    for s in signed:
        _refuse_irregular(f"perturbed({u.describe()}, s={s:g})", ts, ju[0] + s * jv[0], ju[1] + s * jv[1])

    def sample(ts):
        ju, jv = u.derivs(ts), v.derivs(ts)
        return np.column_stack([density(Jet4(ts, *(ju + s * jv))) for s in signed])

    breakpoints = tuple(u.breakpoints) + tuple(v.breakpoints)
    totals = sum(antideriv.sum(axis=0) for *_, antideriv in _panels(sample, t0, t1, breakpoints, QUAD_EPS))
    central = [float(totals[2 * k] - totals[2 * k + 1]) / (2.0 * step) for k, step in enumerate(steps)]
    if not richardson:
        return central[0]
    return (4.0 * central[1] - central[0]) / 3.0


# each form's integrand from the jets j of u and w of v, at a float or a panel of
# nodes, and (p, q, r) of j, read through the guard before anything divides
_FORM_INTEGRANDS = {
    "direct": lambda j, w, p, q, r: 2.0 * q * w.v2 / (p * p) - 2.0 * (q * q) * w.v1 / (p * p * p),
    "by_parts": lambda j, w, p, q, r: (-2.0 * r / (p * p) + 2.0 * (q * q) / (p * p * p)) * w.v1,
    "du_factored": lambda j, w, p, q, r: (-2.0 * r / p + 3.0 * (q * q) / (p * p)) * d_u(j, w) / p,
    "schwarzian": lambda j, w, p, q, r: schwarzian(j) * d_u(j, w) / p,
}


def _boundary(which_form: str, u: CurveFn, v: VariationFn, t0: float, t1: float) -> float:
    if which_form == "direct":
        return 0.0
    ja, jb = u.jet(t0), u.jet(t1)
    wa, wb = v.var_jet(t0), v.var_jet(t1)
    if which_form == "by_parts":
        return boundary_terms(jb, wb)[0] - boundary_terms(ja, wa)[0]
    if which_form == "du_factored":
        return boundary_terms(jb, wb)[1] - boundary_terms(ja, wa)[1]
    return boundary_B(jb, wb) - boundary_B(ja, wa)


def delta_form(which_form: str, u: CurveFn, v: VariationFn, t0: float, t1: float) -> tuple:
    """One of the equivalent integral forms of the first variation, returned
    as (integral, boundary difference).

    Forms "direct", "by_parts", "du_factored" are the successive
    integration-by-parts stages of the variation of I_L (boundary terms 0,
    B0, B1).  Form "schwarzian" is the variation of I_S:

        delta I_S = int S(u) D_u(v) / u' dt  +  B |_{t0}^{t1}

    The 1/u' factor in the integrand is required for the identity to hold
    (it is what the integration by parts actually produces); see the test
    suite's discrepancy ledger.
    """
    if which_form not in FORMS:
        raise ValueError(f"unknown form {which_form!r}; expected one of {FORMS}")
    form = _FORM_INTEGRANDS[which_form]

    def integrand(ts):
        j = u.jet(ts)
        return form(j, v.var_jet(ts), *guarded(j))

    integral = _quad(integrand, t0, t1, tuple(u.breakpoints) + tuple(v.breakpoints))
    return (integral, _boundary(which_form, u, v, t0, t1))


# ---------------------------------------------------------------------------
# Critical-point test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalReport:
    """Outcome of probing a curve with random admissible variations."""

    curve: str
    interval: tuple
    n: int
    threshold: float
    max_delta: float
    witness: Optional[dict]
    max_endpoint_residual: float
    max_du_residual: float

    @property
    def is_critical(self) -> bool:
        return self.witness is None

    def to_dict(self) -> dict:
        return {
            "u": self.curve,
            "interval": list(self.interval),
            "n": self.n,
            "threshold": self.threshold,
            "max_delta": self.max_delta,
            "witness": self.witness,
            "max_endpoint_residual": self.max_endpoint_residual,
            "max_du_residual": self.max_du_residual,
        }


def critical_test(u: CurveFn, t0: float, t1: float, n: int, seed: int = 0) -> CriticalReport:
    """Probe whether u is a critical point of I_S within the admissible
    class: draw n random bumps, build admissible variations, evaluate the
    first variation, and report the maximum |delta| together with a witness
    if it exceeds CRITICAL_THRESHOLD.

    S(u) is the Euler-Lagrange operator of the admissible variations: for
    v = u' W with W' = phi/u', D_u(v) = phi, so each probe is the linear
    functional int S(u) phi/u' dt + glue integral + B| (delta_IS), with no
    ODE solve.  The variations live on u's domain, so [t0, t1] must be that
    domain; any other interval raises ValueError, as does n < 1."""
    if (t0, t1) != u.domain:
        raise ValueError(f"interval ({t0:g}, {t1:g}) is not the curve's domain {u.domain}")
    if n < 1:
        raise ValueError(f"need at least one probe, got n = {n}")
    span = t1 - t0
    eps = CRITICAL_EPS * span
    rng = np.random.default_rng(seed)
    max_delta = -1.0
    witness = None
    max_endpoint = 0.0
    max_du = 0.0
    for _ in range(n):
        lo = t0 + eps
        center = rng.uniform(lo + 0.15 * span, t1 - 0.15 * span)
        max_radius = min(center - lo, t1 - center) * 0.9
        radius = rng.uniform(0.3, 1.0) * max_radius
        amplitude = rng.uniform(0.5, 1.5)
        bump = BumpFn(center, radius, amplitude)
        adm = admissible_variation(u, bump, eps)
        delta = adm.delta_IS()
        max_endpoint = max(max_endpoint, adm.endpoint_residual())
        max_du = max(max_du, adm.base.residual())
        if abs(delta) > max_delta:
            max_delta = abs(delta)
            if abs(delta) > CRITICAL_THRESHOLD:
                witness = {
                    "center": center,
                    "radius": radius,
                    "amplitude": amplitude,
                    "eps": eps,
                    "delta": delta,
                }
    return CriticalReport(
        curve=u.describe(),
        interval=(t0, t1),
        n=n,
        threshold=CRITICAL_THRESHOLD,
        max_delta=max_delta,
        witness=witness,
        max_endpoint_residual=max_endpoint,
        max_du_residual=max_du,
    )

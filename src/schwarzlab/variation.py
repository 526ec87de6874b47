"""Numerical variational calculus for the two functionals of the package:
the quadratic functional I_L = int (u''/u')^2 dt and the Schwarzian
functional I_S = int S(u) dt.

Provides one hierarchy of functions of t with exact derivatives: a
variation (VariationFn) gives v and its first three derivatives, and a curve
(CurveFn) is a variation on a domain, where u' != 0, whose derivatives are
read as a jet.  So u + s*v is a LinearCombination, as any sum of curves and
variations is.  On top of it: the first variation in all its equivalent
integral forms (with their boundary terms kept separate), a finite-difference
cross-check, the integrating-factor solver for D_u(v) = phi, the
admissible-variation construction that meets the second-order endpoint
condition, and the resulting critical-point test.

Every integral here runs on one panel rule (_panels): the interval is split
at the integrand's breakpoints and each panel is bisected until the two
trailing coefficients of its CHEB_N-point Chebyshev interpolant are
negligible; the panel's integral is then exact for that interpolant.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebpts1, chebval, chebvander
from scipy.interpolate import CubicSpline

from .closed_form import MobiusFamily, family_eval_jet, family_fourth, family_poles
from .el_ode import Trajectory
from .errors import InfeasibleVariationError, QuadratureError, SingularJetError, SingularTimeError
from .schwarzian import Jet4, VarJet, boundary_B, boundary_terms, el_rhs, lagrangian, schwarzian
from .symbolics import Expr, TaylorScalar, parse, taylor_eval, variables_of

CURVE_P_FLOOR = 1e-8
# relative rounding allowed in u between two samples of the regularity check
CURVE_U_ROUNDING = 1e-12

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
    T_j(1) = 1.  Raises QuadratureError past CHEB_MAX_PANELS panels."""
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
    """int_a^b fn(t) dt for a scalar fn, as the sum of the _panels integrals,
    with the absolute floor QUAD_EPS on the trailing coefficients."""
    if b < a:
        return -_quad(fn, b, a, breakpoints)
    panels = _panels(lambda ts: np.array([fn(t) for t in ts.tolist()]), a, b, breakpoints, QUAD_EPS)
    return float(sum(antideriv.sum() for *_, antideriv in panels))


# ---------------------------------------------------------------------------
# Functions of t.  A variation has derivatives to order 3; a curve is a
# variation on a domain, with u' != 0 there and its derivatives read as a jet.
# ---------------------------------------------------------------------------

class VariationFn:
    """Base class of every function of t here.  Subclasses provide
    derivs3(t) -> (v, v', v'', v''')."""

    breakpoints: tuple = ()

    def derivs3(self, t: float) -> tuple:
        raise NotImplementedError

    def value(self, t: float) -> float:
        return self.derivs3(t)[0]

    def var_jet(self, t: float) -> VarJet:
        v0, v1, v2, _ = self.derivs3(t)
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

    def derivs3(self, t: float) -> tuple:
        s = taylor_eval(self.expr, {"t": TaylorScalar.variable(t, 3)})
        return (s.coeffs[0], s.derivative(1), s.derivative(2), s.derivative(3))

    def fourth(self, t: float) -> float:
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

    def value(self, t: float) -> float:
        x = (t - self.center) / self.radius
        s = 1.0 - x * x
        if s <= 1e-12:
            return 0.0
        return self.amplitude * math.exp(-1.0 / s)

    def derivs3(self, t: float) -> tuple:
        x0 = (t - self.center) / self.radius
        if 1.0 - x0 * x0 <= 1e-12:
            return (0.0, 0.0, 0.0, 0.0)
        x = (TaylorScalar.variable(t, 3) - self.center) * (1.0 / self.radius)
        psi = (-(1.0 / (1.0 - x * x))).exp() * self.amplitude
        return (psi.coeffs[0], psi.derivative(1), psi.derivative(2), psi.derivative(3))

    def describe(self) -> str:
        return f"bump(center={self.center:g},radius={self.radius:g},amplitude={self.amplitude:g})"


class SplineVariation(VariationFn):
    """Cubic spline through samples; third derivative is piecewise constant."""

    def __init__(self, ts: Sequence, vs: Sequence):
        self._spline = CubicSpline(np.asarray(ts, dtype=float), np.asarray(vs, dtype=float))
        self.breakpoints = tuple(float(t) for t in ts[1:-1])

    def derivs3(self, t: float) -> tuple:
        sp = self._spline
        return (float(sp(t)), float(sp(t, 1)), float(sp(t, 2)), float(sp(t, 3)))


class LinearCombination(VariationFn):
    """sum_i coef_i * v_i of existing variations (curves among them)."""

    def __init__(self, terms: Sequence):
        self.terms = [(float(c), v) for c, v in terms]
        bps = []
        for _, v in self.terms:
            bps.extend(v.breakpoints)
        self.breakpoints = tuple(bps)

    def derivs3(self, t: float) -> tuple:
        v0 = v1 = v2 = v3 = 0.0
        for c, v in self.terms:
            d0, d1, d2, d3 = v.derivs3(t)
            v0 += c * d0
            v1 += c * d1
            v2 += c * d2
            v3 += c * d3
        return (v0, v1, v2, v3)


class CurveFn(VariationFn):
    """A curve is a variation on a domain: a function of t whose (u, u',
    u'', u''') is its jet, on a finite domain t0 < t1 where u' != 0.

    jet(t) is the one method a subclass must provide; derivs3(t) reads it.
    A curve that inherits derivs3 from a variation class defines jet from
    that derivs3 instead.  Construction rejects a domain that is not finite
    with t0 < t1, samples the jet on a grid and rejects curves that come too
    close to u' = 0, or whose u moves against the sign of u' between two
    samples: by the mean value theorem a continuous u cannot, so a pole lies
    between them."""

    domain: tuple

    def jet(self, t: float) -> Jet4:
        raise NotImplementedError

    def derivs3(self, t: float) -> tuple:
        j = self.jet(t)
        return (j.u, j.p, j.q, j.r)

    def _check_regular(self, n: int = 101):
        t0, t1 = self.domain
        if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
            raise ValueError(f"curve {self.describe()} needs a finite domain t0 < t1, got [{t0}, {t1}]")
        last_sign, last_u = 0.0, 0.0
        for i in range(n):
            t = t0 + (t1 - t0) * i / (n - 1)
            jet = self.jet(t)
            if abs(jet.p) < CURVE_P_FLOOR:
                raise SingularJetError(
                    f"curve {self.describe()} has |u'| = {abs(jet.p):.2e} at t = {t}"
                )
            sign = math.copysign(1.0, jet.p)
            if last_sign and sign != last_sign:
                raise SingularJetError(
                    f"curve {self.describe()} has u' changing sign near t = {t}"
                )
            if last_sign and sign * (jet.u - last_u) < -CURVE_U_ROUNDING * max(abs(jet.u), abs(last_u)):
                raise SingularJetError(
                    f"curve {self.describe()} has u moving against the sign of u' near t = {t}: "
                    "a pole lies in its domain"
                )
            last_sign, last_u = sign, jet.u


class MobiusCurve(CurveFn):
    """Closed-form family member restricted to a pole-free window."""

    def __init__(self, family: MobiusFamily, domain: tuple):
        self.family = family
        self.domain = (float(domain[0]), float(domain[1]))
        poles = family_poles(family, *self.domain)
        if poles:
            raise SingularTimeError(f"curve {self.describe()} has a pole in its domain at t = {poles[0]}")
        self._check_regular()

    def jet(self, t: float) -> Jet4:
        return family_eval_jet(self.family, t)

    def fourth(self, t: float) -> float:
        return family_fourth(self.family, t)

    def describe(self) -> str:
        f = self.family
        return f"mobius(A={f.A:g},B={f.B:g},C={f.C:g},D={f.D:g},sigma={f.sigma:g})"


class ExprCurve(ExprVariation, CurveFn):
    """Curve given by an expression in t alone: an ExprVariation on a
    domain, so its derivatives are exact."""

    def __init__(self, source: Union[str, Expr], domain: tuple):
        super().__init__(source)
        self.domain = (float(domain[0]), float(domain[1]))
        self._check_regular()

    def jet(self, t: float) -> Jet4:
        return Jet4(t, *self.derivs3(t))


class TrajectoryCurve(CurveFn):
    """Integrated solution used as a curve, through its dense output.  The
    fourth derivative comes from the equation itself."""

    def __init__(self, traj: Trajectory, domain: Optional[tuple] = None):
        self.traj = traj
        lo = min(traj.t_start, traj.t_final)
        hi = max(traj.t_start, traj.t_final)
        self.domain = (float(domain[0]), float(domain[1])) if domain else (lo, hi)
        self._check_regular()

    def jet(self, t: float) -> Jet4:
        return self.traj.jet_at(t)

    def fourth(self, t: float) -> float:
        return el_rhs(self.jet(t))

    def describe(self) -> str:
        return f"trajectory(tol={self.traj.tolerance:g})"


class PerturbedCurve(LinearCombination, CurveFn):
    """u + s*v for a curve u and variation v, used by the finite-difference
    variation: the LinearCombination [(1, u), (s, v)] on u's domain."""

    def __init__(self, curve: CurveFn, variation: VariationFn, s: float):
        super().__init__([(1.0, curve), (s, variation)])
        self.curve = curve
        self.variation = variation
        self.s = float(s)
        self.domain = curve.domain
        self._check_regular()

    def jet(self, t: float) -> Jet4:
        return Jet4(t, *self.derivs3(t))

    def describe(self) -> str:
        return f"perturbed({self.curve.describe()}, s={self.s:g})"


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
            # no jet is evaluated where phi vanishes
            fg = np.zeros((len(ts), 2))
            for k, t in enumerate(ts.tolist()):
                phi_t = phi.value(t)
                if phi_t:
                    jet = u.jet(t)
                    fg[k] = (phi_t / jet.p, schwarzian(jet) * phi_t / jet.p)
            return fg

        self._pieces = []
        total = np.zeros(2)  # running (W, int S phi/u')
        for a, b, antideriv in _panels(sample, self.t0, self.t1, phi.breakpoints):
            self._pieces.append((a, b, float(total[0]), antideriv[:, 0]))
            total += antideriv.sum(axis=0)
        self.schwarzian_integral = float(total[1])

    def _cumulative(self, t: float) -> float:
        t = min(max(t, self.t0), self.t1)
        i = bisect_right(self._pieces, t, key=lambda piece: piece[0])
        a, b, w, antideriv = self._pieces[max(i - 1, 0)]
        return w + float(chebval((2.0 * t - a - b) / (b - a), antideriv))

    def value(self, t: float) -> float:
        return self.u.jet(t).p * (self.k0 + self._cumulative(t))

    def derivs3(self, t: float) -> tuple:
        jet = self.u.jet(t)
        p, q, r = jet.p, jet.q, jet.r
        f0, f1, f2, _ = self.phi.derivs3(t)
        w = self.k0 + self._cumulative(t)
        v = p * w
        v1 = q * w + f0
        v2 = r * w + q * f0 / p + f1
        v3 = (
            self.u.fourth(t) * w
            + 2.0 * r * f0 / p
            + q * (f1 * p - f0 * q) / p ** 2
            + f2
        )
        return (v, v1, v2, v3)

    def residual(self, n: int = 64, h: float = 1e-4) -> float:
        """max |D_u(v) - phi| on a verification grid, with v' recomputed by a
        fourth-order central difference of v = u' (k0 + W), so the check is
        independent of the derivative formulas in derivs3."""
        worst = 0.0
        a, b = self.t0 + 2 * h, self.t1 - 2 * h
        for i in range(n):
            t = a + (b - a) * i / (n - 1)
            vals = [self.value(t + k * h) for k in (-2, -1, 1, 2)]
            v1_fd = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
            jet = self.u.jet(t)
            du = v1_fd - jet.q * (self.k0 + self._cumulative(t))
            worst = max(worst, abs(du - self.phi.value(t)))
        return worst

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

    def _glue(self, t: float) -> tuple:
        if t > self.join:
            return (0.0, 0.0, 0.0, 0.0)
        d = t - self.join
        return (self.c * d * d, 2.0 * self.c * d, 2.0 * self.c, 0.0)

    def derivs3(self, t: float) -> tuple:
        a = self.base.derivs3(t)
        b = self._glue(t)
        return tuple(x + y for x, y in zip(a, b))

    def glue_bound(self, n: int = 33) -> float:
        """K such that max(|vhat|, |D_u(vhat)|) <= K * eps on the glue."""
        worst = 0.0
        for i in range(n):
            t = self.t0 + self.eps * i / (n - 1)
            g = self._glue(t)
            jet = self.u.jet(t)
            du = g[1] - (jet.q / jet.p) * g[0]
            worst = max(worst, abs(g[0]), abs(du))
        return worst / self.eps

    def delta_IS(self) -> float:
        """sum(delta_form("schwarzian", u, self, t0, t1)) as a linear functional:
        D_u(v + vhat) = phi + D_u(vhat), so it is base.schwarzian_integral
        + int_t0^{t0+eps} S(u) D_u(vhat)/u' dt + B |_t0^t1."""
        def glue(t):
            jet, g = self.u.jet(t), self._glue(t)
            return schwarzian(jet) * (g[1] - (jet.q / jet.p) * g[0]) / jet.p

        return (self.base.schwarzian_integral
                + _quad(glue, self.t0, self.join, self.u.breakpoints)
                + _boundary("schwarzian", self.u, self, self.t0, self.t1))

    def endpoint_residual(self) -> float:
        """|B(t1) - B(t0)| of the combined variation, evaluated directly."""
        return abs(_boundary("schwarzian", self.u, self, self.t0, self.t1))

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
    # boundary density of the glue at t0 is c * gain
    gain = (2.0 + 4.0 * (q / p) * eps + (q ** 2 / (2.0 * p ** 2)) * eps ** 2) / p
    if abs(gain) < 1e-12:
        raise InfeasibleVariationError(
            f"endpoint functional insensitive to the glue coefficient (gain = {gain:.3e})"
        )
    return AdmissibleVariation(u, phi, eps, base, b_end / gain)


# ---------------------------------------------------------------------------
# Functionals and their first variations
# ---------------------------------------------------------------------------

def functional_IL(u: CurveFn, t0: float, t1: float) -> float:
    """Quadrature of (u''/u')^2 over [t0, t1]."""
    return _quad(lambda t: lagrangian(u.jet(t)), t0, t1, u.breakpoints)


def functional_IS(u: CurveFn, t0: float, t1: float) -> float:
    """Quadrature of S(u) over [t0, t1].  Equals the boundary difference of
    u''/u' minus half of functional_IL (checked in the test suite)."""
    return _quad(lambda t: schwarzian(u.jet(t)), t0, t1, u.breakpoints)


_FUNCTIONALS = {"I_L": functional_IL, "I_S": functional_IS}


def delta_fd(which: str, u: CurveFn, v: VariationFn, h: float = 1e-5,
             richardson: bool = False) -> float:
    """Central finite-difference first variation (I[u+hv] - I[u-hv]) / (2h)
    over u's domain.  With richardson=True the h and h/2 stencils are
    combined for fourth-order accuracy."""
    functional = _FUNCTIONALS[which]
    t0, t1 = u.domain

    def central(step):
        plus = functional(PerturbedCurve(u, v, step), t0, t1)
        minus = functional(PerturbedCurve(u, v, -step), t0, t1)
        return (plus - minus) / (2.0 * step)

    if not richardson:
        return central(h)
    d1, d2 = central(h), central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _integrand(which_form: str, u: CurveFn, v: VariationFn):
    if which_form not in FORMS:
        raise ValueError(f"unknown form {which_form!r}; expected one of {FORMS}")

    def f(t):
        j = u.jet(t)
        v0, v1, v2, _ = v.derivs3(t)
        du = v1 - (j.q / j.p) * v0
        if which_form == "direct":
            return 2.0 * j.q * v2 / j.p ** 2 - 2.0 * j.q ** 2 * v1 / j.p ** 3
        if which_form == "by_parts":
            return (-2.0 * j.r / j.p ** 2 + 2.0 * j.q ** 2 / j.p ** 3) * v1
        if which_form == "du_factored":
            return (-2.0 * j.r / j.p + 3.0 * j.q ** 2 / j.p ** 2) * du / j.p
        return schwarzian(j) * du / j.p
    return f


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
    integral = _quad(_integrand(which_form, u, v), t0, t1,
                     tuple(u.breakpoints) + tuple(v.breakpoints))
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

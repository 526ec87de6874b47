"""Numerical variational calculus for the two functionals of the package:
the quadratic functional I_L = int (u''/u')^2 dt and the Schwarzian
functional I_S = int S(u) dt.

Provides curve and variation function types with exact derivatives, the
first variation in all its equivalent integral forms (with their boundary
terms kept separate), a finite-difference cross-check, the integrating-factor
solver for D_u(v) = phi, the admissible-variation construction that meets the
second-order endpoint condition, and the resulting critical-point test.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebinterpolate, chebval
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .closed_form import MobiusFamily, family_eval_jet, family_fourth, family_poles
from .el_ode import Trajectory
from .errors import InfeasibleVariationError, QuadratureError, SingularJetError, SingularTimeError
from .schwarzian import Jet4, VarJet, boundary_B, boundary_terms, el_rhs, lagrangian, schwarzian
from .symbolics import Expr, TaylorScalar, parse, taylor_eval, variables_of

QUAD_EPS = 1e-12
CURVE_P_FLOOR = 1e-8
# relative rounding allowed in u between two samples of the regularity check
CURVE_U_ROUNDING = 1e-12

FORMS = ("direct", "by_parts", "du_factored", "schwarzian")

# DuSolution's Chebyshev panels: CHEB_N nodes each; a panel is bisected until its
# two trailing coefficients are <= CHEB_TAIL * the largest initial coefficient
CHEB_N = 20
CHEB_TAIL = 1e-13
CHEB_MAX_PANELS = 500


def _quad(fn, a, b, breakpoints=()):
    pts = sorted({float(x) for x in breakpoints if a < x < b})
    out = quad(fn, a, b, points=pts or None, epsabs=QUAD_EPS, epsrel=QUAD_EPS,
               limit=500, full_output=1)
    # full_output suppresses scipy's warning; a 4th element is its message
    if len(out) >= 4:
        message = " ".join(out[3].split())
        raise QuadratureError(f"quadrature over [{a:g}, {b:g}] did not converge: {message}", out[1])
    return out[0]


# ---------------------------------------------------------------------------
# Curves: scalar functions of t with derivatives to order 4 and u' != 0
# ---------------------------------------------------------------------------

class CurveFn:
    """Base class.  Subclasses provide jet(t); construction samples the jet on
    a grid and rejects curves that come too close to u' = 0, or whose u moves
    against the sign of u' between two samples: by the mean value theorem a
    continuous u cannot, so a pole lies between them."""

    domain: tuple
    breakpoints: tuple = ()

    def jet(self, t: float) -> Jet4:
        raise NotImplementedError

    def fourth(self, t: float) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    def _check_regular(self, n: int = 101):
        t0, t1 = self.domain
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


class ExprCurve(CurveFn):
    """Curve given by an expression in t alone; derivatives via Taylor
    arithmetic, so they are exact."""

    def __init__(self, source: Union[str, Expr], domain: tuple):
        self.expr = parse(source) if isinstance(source, str) else source
        extra = variables_of(self.expr) - {"t"}
        if extra:
            raise ValueError(f"curve expression may only reference t, found {sorted(extra)}")
        self.text = str(self.expr)
        self.domain = (float(domain[0]), float(domain[1]))
        self._check_regular()

    def _series(self, t: float, order: int) -> TaylorScalar:
        return taylor_eval(self.expr, {"t": TaylorScalar.variable(t, order)})

    def jet(self, t: float) -> Jet4:
        return Jet4.from_series(self._series(t, 3))

    def fourth(self, t: float) -> float:
        return self._series(t, 4).derivative(4)

    def describe(self) -> str:
        return f"expr:{self.text}"


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


class PerturbedCurve(CurveFn):
    """u + s*v for a curve u and variation v; used by the finite-difference
    variation."""

    def __init__(self, curve: CurveFn, variation: "VariationFn", s: float):
        self.curve = curve
        self.variation = variation
        self.s = float(s)
        self.domain = curve.domain
        self.breakpoints = tuple(curve.breakpoints) + tuple(variation.breakpoints)
        self._check_regular()

    def jet(self, t: float) -> Jet4:
        base = self.curve.jet(t)
        v0, v1, v2, v3 = self.variation.derivs3(t)
        s = self.s
        return Jet4(t, base.u + s * v0, base.p + s * v1, base.q + s * v2, base.r + s * v3)

    def describe(self) -> str:
        return f"perturbed({self.curve.describe()}, s={self.s:g})"


# ---------------------------------------------------------------------------
# Variations: scalar functions of t with derivatives to order 3
# ---------------------------------------------------------------------------

class VariationFn:
    """Base class.  Subclasses provide derivs3(t) -> (v, v', v'', v''')."""

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
    """Variation given by an expression in t alone."""

    def __init__(self, source: Union[str, Expr]):
        self.expr = parse(source) if isinstance(source, str) else source
        extra = variables_of(self.expr) - {"t"}
        if extra:
            raise ValueError(f"variation expression may only reference t, found {sorted(extra)}")
        self.text = str(self.expr)

    def derivs3(self, t: float) -> tuple:
        s = taylor_eval(self.expr, {"t": TaylorScalar.variable(t, 3)})
        return (s.coeffs[0], s.derivative(1), s.derivative(2), s.derivative(3))

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
    """sum_i coef_i * v_i of existing variations."""

    def __init__(self, terms: Sequence):
        self.terms = [(float(c), v) for c, v in terms]
        bps = []
        for _, v in self.terms:
            bps.extend(v.breakpoints)
        self.breakpoints = tuple(bps)

    def derivs3(self, t: float) -> tuple:
        acc = [0.0, 0.0, 0.0, 0.0]
        for c, v in self.terms:
            d = v.derivs3(t)
            for k in range(4):
                acc[k] += c * d[k]
        return tuple(acc)


class DuSolution(VariationFn):
    """Integrating-factor solution of D_u(v) = phi:

        v(t) = u'(t) * (k0 + W(t)),   k0 = v0 / u'(t0),   W(t) = int_t0^t phi/u' dtau

    (u' spans the kernel of D_u, and D_u(u' W) = u' W' = phi).  W is the
    running integral of Chebyshev interpolants of phi/u' on panels split at
    phi's breakpoints and bisected until resolved.  Since D_u(v) = phi, the
    Schwarzian form of delta I_S along v integrates S(u) phi/u'; that
    integral comes from the same panel jets as `schwarzian_integral`.
    """

    def __init__(self, u: CurveFn, phi: VariationFn, v0: float, t0: float, t1: float):
        self.u = u
        self.phi = phi
        self.t0, self.t1 = float(t0), float(t1)
        self.k0 = float(v0) / u.jet(t0).p
        self.breakpoints = tuple(phi.breakpoints)
        edges = sorted({self.t0, self.t1}
                       | {float(x) for x in phi.breakpoints if self.t0 < x < self.t1})
        # leftmost panel last, so pop() walks the interval from t0 to t1
        stack = [(a, b, self._interpolate(a, b))
                 for a, b in reversed(list(zip(edges[:-1], edges[1:])))]
        scale = max(np.abs(coef).max() for _, _, coef in stack)
        self._pieces = []
        total = np.zeros(2)  # running (W, int S phi/u')
        while stack:
            a, b, coef = stack.pop()
            tail = np.abs(coef[-2:]).max()
            if tail > CHEB_TAIL * scale:
                if len(self._pieces) + len(stack) >= CHEB_MAX_PANELS:
                    raise QuadratureError(f"phi/u' not resolved in {CHEB_MAX_PANELS} Chebyshev "
                                          f"panels near t = {a:g}", abserr=tail * (b - a))
                m = 0.5 * (a + b)
                stack += [(m, b, self._interpolate(m, b)), (a, m, self._interpolate(a, m))]
                continue
            antideriv = chebint(coef, lbnd=-1.0, scl=0.5 * (b - a))
            self._pieces.append((a, b, float(total[0]), antideriv[:, 0]))
            total += antideriv.sum(axis=0)  # T_j(1) = 1
        self.schwarzian_integral = float(total[1])

    def _interpolate(self, a: float, b: float) -> np.ndarray:
        """Chebyshev coefficients of phi/u' and S(u) phi/u' (two columns) on
        [a, b]; no jet is evaluated where phi vanishes."""
        def sample(xs):
            fg = np.zeros((len(xs), 2))
            for k, x in enumerate(xs.tolist()):
                t = 0.5 * (a + b) + 0.5 * (b - a) * x
                phi = self.phi.value(t)
                if phi:
                    jet = self.u.jet(t)
                    fg[k] = (phi / jet.p, schwarzian(jet) * phi / jet.p)
            return fg

        return chebinterpolate(sample, CHEB_N - 1)

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


def solve_du(u: CurveFn, phi: VariationFn, v0: float, t0: Optional[float] = None,
             t1: Optional[float] = None) -> DuSolution:
    """Solve the first-order equation D_u(v) = phi with v(t0) = v0."""
    d0, d1 = u.domain
    return DuSolution(u, phi, v0, d0 if t0 is None else t0, d1 if t1 is None else t1)


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
        b0 = boundary_B(self.u.jet(self.t0), self.var_jet(self.t0))
        b1 = boundary_B(self.u.jet(self.t1), self.var_jet(self.t1))
        return abs(b1 - b0)

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
    base = solve_du(u, phi, 0.0, t0, t1)
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
    if which_form == "direct":
        def f(t):
            j = u.jet(t)
            _, v1, v2, _ = v.derivs3(t)
            return 2.0 * j.q * v2 / j.p ** 2 - 2.0 * j.q ** 2 * v1 / j.p ** 3
    elif which_form == "by_parts":
        def f(t):
            j = u.jet(t)
            v1 = v.derivs3(t)[1]
            return (-2.0 * j.r / j.p ** 2 + 2.0 * j.q ** 2 / j.p ** 3) * v1
    elif which_form == "du_factored":
        def f(t):
            j = u.jet(t)
            v0, v1, _, _ = v.derivs3(t)
            du = v1 - (j.q / j.p) * v0
            return (-2.0 * j.r / j.p + 3.0 * j.q ** 2 / j.p ** 2) * du / j.p
    elif which_form == "schwarzian":
        def f(t):
            j = u.jet(t)
            v0, v1, _, _ = v.derivs3(t)
            du = v1 - (j.q / j.p) * v0
            return schwarzian(j) * du / j.p
    else:
        raise ValueError(f"unknown form {which_form!r}; expected one of {FORMS}")
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


def critical_test(u: CurveFn, t0: float, t1: float, n: int, seed: int = 0,
                  eps: Optional[float] = None, threshold: float = 1e-4) -> CriticalReport:
    """Probe whether u is a critical point of I_S within the admissible
    class: draw n random bumps, build admissible variations, evaluate the
    first variation, and report the maximum |delta| together with a witness
    if it exceeds the threshold.

    S(u) is the Euler-Lagrange operator of the admissible variations: for
    v = u' W with W' = phi/u', D_u(v) = phi, so each probe is the linear
    functional int S(u) phi/u' dt + glue integral + B| (delta_IS), with no
    ODE solve.  The variations live on u's domain, so [t0, t1] must be that
    domain; any other interval raises ValueError."""
    if (t0, t1) != u.domain:
        raise ValueError(f"interval ({t0:g}, {t1:g}) is not the curve's domain {u.domain}")
    span = t1 - t0
    if eps is None:
        eps = 0.05 * span
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
            if abs(delta) > threshold:
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
        threshold=threshold,
        max_delta=max_delta,
        witness=witness,
        max_endpoint_residual=max_endpoint,
        max_du_residual=max_du,
    )

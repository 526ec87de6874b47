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
negligible; the panel's integral is then exact for that interpolant.  The
walk goes one bisection level at a time and reads its fits from one table:
each level fits the panels the table lacks in one sample call and one
stacked product (_fit).  The walk of W over a lone bump seeds that table
with the bump's whole panel tree, sampled in one call, so a critical_test
probe samples W's integrand once, and DuSolution reads W, at a float or at
any set of nodes, in one Clenshaw pass (_clenshaw, chebval's recurrence).

A function of t is immutable once built, and each one keeps a memo of its
last MEMO_SIZE derivs reads, so it computes its jets once per set of points:
the walks of one pair's forms, functionals and finite difference read the
same panel nodes, the same two ends and the same regularity grid.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass
from functools import cache, cached_property, wraps
from typing import Optional, Sequence, Union

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebpts1, chebvander

from .closed_form import MobiusFamily, family_derivs, family_fourth, family_poles
from .el_ode import Trajectory
from .errors import InfeasibleVariationError, QuadratureError, SingularJetError, SingularTimeError
from .schwarzian import Jet4, VarJet, boundary_B, boundary_terms, d_u, el_rhs, guarded, lagrangian, schwarzian
from .symbolics import (Const, Div, Expr, Func, Mul, Neg, Sub, TaylorProgram, TaylorScalar, Var, derivatives,
                        first_where, parse, variables_of)

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
# critical_test's accuracy gates: the largest D_u residual and the largest
# endpoint residual of its probes that a report passes
CRITICAL_DU_GATE = 1e-9
CRITICAL_ENDPOINT_GATE = 1e-10

# derivs reads each function of t keeps, the most recent ones
MEMO_SIZE = 8

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


# a sample that is not finite is refused by _panels, on its panel's tail, so
# numpy does not warn of it first
@np.errstate(over="ignore", invalid="ignore")
def _fit(sample, level) -> list:
    """(coefficients, tail, largest coefficient) of each panel of level, a
    list of (lo, hi), from one sample call over all their nodes; the two
    maxima as Python floats from one reduction each."""
    values = sample(np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * _CHEB_NODES for lo, hi in level]))
    coefs = _CHEB_FIT @ values.reshape(len(level), CHEB_N, -1)
    size = np.abs(coefs)
    return list(zip(coefs.reshape((len(level), CHEB_N) + values.shape[1:]),
                    np.maximum.reduce(size[:, -2:], axis=(1, 2)).tolist(),
                    np.maximum.reduce(size, axis=(1, 2)).tolist()))


def _panels(sample, a: float, b: float, breakpoints, floor: float = 0.0, expected=()) -> list:
    """Chebyshev panels that resolve an integrand on [a, b], left to right.

    sample(ts) gives the integrand at a 1-D array of nodes ts, one row a node
    (one column an integrand).  [a, b] is split at the breakpoints inside it,
    and each panel is bisected until its two trailing coefficients are <=
    max(CHEB_TAIL * scale, floor), scale the largest coefficient of the
    initial panels.  Returns (lo, hi, coefficients of the antiderivative on
    [lo, hi] that vanishes at lo) per panel; its value at hi is its sum, as
    T_j(1) = 1.  Raises QuadratureError on a panel whose coefficients are
    not finite, and past CHEB_MAX_PANELS panels.

    The walk goes one bisection level at a time, and reads every fit from
    one table, by panel: each level fits the panels the table lacks in one
    _fit, that is one sample call over their nodes and one product over
    their stack, whose every slice runs the one-panel product (BLAS's gemv
    for one column, gemm for more), so each fit has the bits of the panel's
    own.  Each panel is then decided on its tail as a Python float.
    expected, (lo, hi) pairs, are the panels the caller expects the walk to
    reach: their fits seed the table, in one _fit before the first level,
    so a walk whose guess holds samples once.  If that _fit raises, the walk
    starts from an empty table, and an expected panel the walk does not
    reach is never tested.  As a node's value does not depend on the other
    nodes of its array, every panel is the one a walk panel by panel would
    give, bit for bit, and so is every error."""
    fits = {}
    if expected:
        try:
            fits = dict(zip(expected, _fit(sample, expected)))
        except Exception:
            # dropped: a level that reaches the node that raised raises it
            # again, and a walk that reaches none of them does not raise
            pass
    edges = sorted({a, b} | {float(x) for x in breakpoints if a < x < b})
    level = list(zip(edges[:-1], edges[1:]))
    done, tol = [], None
    while level:
        lacking = [panel for panel in level if panel not in fits]
        if lacking:
            fits.update(zip(lacking, _fit(sample, lacking)))
        if tol is None:
            tol = max(CHEB_TAIL * max(fits[panel][2] for panel in level), floor)
        halves = []
        for i, (lo, hi) in enumerate(level):
            coef, tail, _ = fits[lo, hi]
            if not math.isfinite(tail):
                raise QuadratureError(f"quadrature over [{a:g}, {b:g}]: the integrand is not finite "
                                      f"on the panel [{lo:g}, {hi:g}]", tail * (hi - lo))
            if tail <= tol:
                done.append((lo, hi, 0.5 * (hi - lo) * (_CHEB_INT @ coef)))
            elif len(done) + len(halves) + len(level) - i - 1 >= CHEB_MAX_PANELS:
                # the panels besides this one: done, halved so far and the rest of the level
                raise QuadratureError(f"quadrature over [{a:g}, {b:g}] did not converge: not resolved in "
                                      f"{CHEB_MAX_PANELS} Chebyshev panels near t = {lo:g}", tail * (hi - lo))
            else:
                m = 0.5 * (lo + hi)
                halves += [(lo, m), (m, hi)]
        level = halves
    return sorted(done, key=lambda panel: panel[0])


def _clenshaw(c, x):
    """sum_j c[j] T_j(x) by chebval's Clenshaw recurrence, the same
    operations in the same order, so the same bits: at a float x with c a
    list of floats, or at an array x with c's rows arrays over it."""
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


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


def _memoized(derivs):
    """derivs with a memo of the last MEMO_SIZE reads of each object, keyed by
    the bits of t: a float's type and float64 bytes, so -0.0 and 0.0 stay
    apart, or an array's dtype, shape and bytes.  A repeated read returns the
    result computed before, its array made read-only so that a caller who
    writes into it fails; a read that raises is not stored."""
    @wraps(derivs)
    def read(self, t):
        if isinstance(t, np.ndarray):
            key = (t.dtype, t.shape, t.tobytes())
        else:
            key = (type(t), struct.pack("d", t))
        memo = vars(self).setdefault("_memo", {})
        # popped and put back, so the dict's order runs from least to most recent
        out = memo.pop(key, None)
        if out is None:
            out = derivs(self, t)
            if isinstance(out, np.ndarray):
                out.flags.writeable = False
            if len(memo) == MEMO_SIZE:
                del memo[next(iter(memo))]
        memo[key] = out
        return out
    return read


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
    # each test at point i compares it with point i - 1; the first point
    # that fails one is refused, by the first test it fails
    sign = np.copysign(1.0, ps)
    low = np.abs(ps) < CURVE_P_FLOOR
    flip = np.concatenate(([False], sign[1:] != sign[:-1]))
    with np.errstate(over="ignore"):  # u_i - u_(i-1) may round to +-inf
        rise = sign[1:] * (us[1:] - us[:-1])
    against = np.concatenate(([False], rise < -CURVE_U_ROUNDING * np.maximum(np.abs(us[1:]), np.abs(us[:-1]))))
    bad = np.flatnonzero(low | flip | against)
    if bad.size == 0:
        return
    i = bad[0]
    t = float(ts[i])
    if low[i]:
        raise SingularJetError(f"curve {name} has |u'| = {abs(float(ps[i])):.2e} at t = {t}")
    if flip[i]:
        raise SingularJetError(f"curve {name} has u' changing sign near t = {t}")
    raise SingularJetError(
        f"curve {name} has u moving against the sign of u' near t = {t}: a pole lies in its domain"
    )


# ---------------------------------------------------------------------------
# Functions of t.  A variation has derivatives to order 3; a curve is a
# variation on a domain, with u' != 0 there and its derivatives read as a jet.
# ---------------------------------------------------------------------------

class VariationFn:
    """Base class of every function of t here.  derivs(t) is the one method
    a subclass provides; value and var_jet read it.

    A function of t is immutable once built: each subclass's derivs is
    _memoized, so it keeps its last MEMO_SIZE reads and computes the jets at
    a set of points once however often they are read."""

    breakpoints: tuple = ()

    def derivs(self, t):
        """(v, v', v'', v''') at t.  At a float t, four floats; at a 1-D float
        array t, an array of shape (4, len(t)) whose column k == derivs(t[k]),
        so a panel of nodes is read in one call.  A repeated read returns the
        result of the first, whose array is read-only."""
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
    arithmetic, so they are exact.  The expression is compiled once, into
    the TaylorProgram that each read runs on t's series about the points
    read (TaylorScalar.variable), with the bits of taylor_eval on it."""

    def __init__(self, source: Union[str, Expr]):
        self.expr = parse(source) if isinstance(source, str) else source
        extra = variables_of(self.expr) - {"t"}
        if extra:
            raise ValueError(f"expression may only reference t, found {sorted(extra)}")
        self.text = str(self.expr)
        # t's series about a point, (t, 1, 0, ...), is 0 past coefficient 1
        self.program = TaylorProgram(self.expr, {"t": 1})

    # an overflow or an invalid value leaves a non-finite entry, which the
    # curve check or the panel walk refuses
    @_memoized
    @np.errstate(over="ignore", invalid="ignore")
    def derivs(self, t):
        # at an array, one batch of series based at every node
        x = TaylorScalar.variable(t, 3)
        return _rows(derivatives(self.program.run(x.base_point, {"t": x.coeffs}, 3)), t)

    @np.errstate(over="ignore", invalid="ignore")
    def fourth(self, t):
        x = TaylorScalar.variable(t, 4)
        return derivatives(self.program.run(x.base_point, {"t": x.coeffs}, 4)[4:], 4)[0]

    def describe(self) -> str:
        return f"expr:{self.text}"


# a * exp(-1/(1 - x^2)), compiled once for every bump: x's series is
# ((t - center)/radius, 1/radius, 0, 0), 0 past coefficient 1, and the
# amplitude a's is constant, so the product with it is 0.0 + c_k*a
_BUMP = TaylorProgram(
    Mul(Func("exp", Neg(Div(Const(1.0), Sub(Const(1.0), Mul(Var("x"), Var("x")))))), Var("a")), {"x": 1, "a": 0})


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

    @_memoized
    def derivs(self, t):
        x0 = self._x(t)
        inside = 1.0 - x0 * x0 > 1e-12
        if isinstance(t, np.ndarray):
            # where the bump vanishes, the series is taken at the centre and zeroed
            x0 = np.where(inside, x0, 0.0)
        elif inside:
            x0 = float(x0)
        else:
            return (0.0, 0.0, 0.0, 0.0)
        inputs = {"x": (x0, 1.0 / self.radius, 0.0, 0.0), "a": (float(self.amplitude), 0.0, 0.0, 0.0)}
        return _rows([d * inside for d in derivatives(_BUMP.run(t, inputs, 3))], t)

    def describe(self) -> str:
        return f"bump(center={self.center:g},radius={self.radius:g},amplitude={self.amplitude:g})"


@cache
def _bump_leaves() -> frozenset:
    """The panels, in x, of the walk over the bare profile exp(-1/(1 - x^2))
    on [-1, 1]; found on the first walk over a bump."""
    return frozenset((lo, hi) for lo, hi, _ in _panels(BumpFn(0.0, 1.0).value, -1.0, 1.0, ()))


def _bump_tree(lo: float, hi: float, x: tuple = (-1.0, 1.0)) -> list:
    """The panels a walk over a lone bump's support [lo, hi] is expected to
    reach: the walk over the bare profile, each panel it bisected among
    them, replayed on [lo, hi] with the walk's own midpoints, so each panel
    is the same floats as the walk's."""
    if x in _bump_leaves():
        return [(lo, hi)]
    m, xm = 0.5 * (lo + hi), 0.5 * (x[0] + x[1])
    return [(lo, hi)] + _bump_tree(lo, m, (x[0], xm)) + _bump_tree(m, hi, (xm, x[1]))


class LinearCombination(VariationFn):
    """sum_i coef_i * v_i of existing variations (curves among them)."""

    def __init__(self, terms: Sequence):
        self.terms = [(float(c), v) for c, v in terms]
        bps = []
        for _, v in self.terms:
            bps.extend(v.breakpoints)
        self.breakpoints = tuple(bps)

    @_memoized
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

    @_memoized
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

    @_memoized
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
    same panel jets as `schwarzian_integral`.  W is read by _cumulative, at
    a float or on an array, with chebval's bits.

    When phi is a BumpFn, the walk's table of fits is seeded with the panels
    it is expected to reach: the two panels outside the support and the
    bump's panel tree on it (_bump_tree), all sampled in one call.  The
    panels are those of the walk without them, bit for bit.
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

        expected = ()
        if isinstance(phi, BumpFn):
            lo, hi = min(phi.support), max(phi.support)
            expected = [(self.t0, lo), *_bump_tree(lo, hi), (hi, self.t1)]
        lefts, rights, antiderivs = zip(*_panels(sample, self.t0, self.t1, phi.breakpoints, 0.0, expected))
        # the antiderivatives of (W, int S phi/u'), one panel a row
        stack = np.array(antiderivs)
        # running (W, int S phi/u') at the right end of each panel
        totals = np.cumsum(stack.sum(axis=1), axis=0)
        # per panel: its ends (the left ones also as a list of floats, for
        # bisect), W at its left end, and in a column the coefficients of W on it
        self._left_list = list(lefts)
        self._lefts, self._rights = np.array(lefts), np.array(rights)
        self._offsets = np.concatenate([[0.0], totals[:-1, 0]])
        self._coefs = stack[:, :, 0].T
        self.schwarzian_integral = float(totals[-1, 1])

    def _cumulative(self, ts):
        """W clamped to [t0, t1], by one Clenshaw pass with chebval's bits.
        At a float, a numpy float or an int, a Python float: the panel is
        found by bisect and the pass runs on its coefficients as Python
        floats.  At a 1-D array ts, every node's panel is gathered, then one
        pass runs over all nodes."""
        if not isinstance(ts, np.ndarray):
            t = min(max(float(ts), self.t0), self.t1)
            i = max(bisect.bisect_right(self._left_list, t) - 1, 0)
            a, b = self._left_list[i], float(self._rights[i])
            return float(self._offsets[i]) + _clenshaw(self._coefs[:, i].tolist(), (2.0 * t - a - b) / (b - a))
        ts = np.clip(ts, self.t0, self.t1)
        piece = np.maximum(np.searchsorted(self._lefts, ts, side="right") - 1, 0)
        a, b = self._lefts[piece], self._rights[piece]
        return self._offsets[piece] + _clenshaw(self._coefs[:, piece], (2.0 * ts - a - b) / (b - a))

    @_memoized
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
        in derivs.  Raises ValueError on a domain narrower than the stencil,
        and on one so far from 0 that the stencil's five points round to
        fewer: checked at the domain's largest |t|, where floats lie the
        farthest apart."""
        n, h = DU_CHECK_N, DU_CHECK_H
        a, b = self.t0 + 2 * h, self.t1 - 2 * h
        if b < a:
            raise ValueError(f"domain [{self.t0:g}, {self.t1:g}] is narrower than the D_u check's stencil, "
                             f"4h = {4 * h:g}")
        t = max(abs(self.t0), abs(self.t1))
        if not t - 2 * h < t - h < t < t + h < t + 2 * h:
            raise ValueError(f"domain [{self.t0:g}, {self.t1:g}] is too far from 0 for the D_u check's stencil: "
                             f"t - 2h, t - h, t, t + h and t + 2h are not distinct at t = {t:g}, h = {h:g}")
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

    @_memoized
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
    bumps) phi supported in (t0 + eps, t1): its support is read as
    [min, max] of phi.breakpoints, a bump's two ends."""
    t0, t1 = u.domain
    if not phi.breakpoints:
        raise ValueError("phi must be compactly supported (a bump or combination of bumps)")
    lo, hi = min(phi.breakpoints), max(phi.breakpoints)
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

    @property
    def endpoint_check_passed(self) -> bool:
        """The verdict of the endpoint gate: max_endpoint_residual <= CRITICAL_ENDPOINT_GATE."""
        return self.max_endpoint_residual <= CRITICAL_ENDPOINT_GATE

    @property
    def du_check_passed(self) -> bool:
        """The verdict of the D_u gate: max_du_residual <= CRITICAL_DU_GATE."""
        return self.max_du_residual <= CRITICAL_DU_GATE

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
            "endpoint_check_passed": self.endpoint_check_passed,
            "du_check_passed": self.du_check_passed,
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

"""Variational machinery: functionals, equivalent first-variation forms,
the integrating-factor solver, admissible variations, and the critical-point
test."""

import bisect
import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import random_mobius_curve, random_polynomial_variation
from schwarzlab import variation
from schwarzlab.closed_form import MobiusFamily, family_eval_jet
from schwarzlab.el_ode import integrate
from schwarzlab.errors import (EvalDomainError, InfeasibleVariationError, QuadratureError, SingularJetError,
                               SingularTimeError)
from schwarzlab.schwarzian import Jet4, boundary_B, lagrangian, schwarzian
from schwarzlab.symbolics import TaylorScalar, derivatives, taylor_eval
from schwarzlab.variation import (
    FORMS,
    BumpFn,
    CurveFn,
    ExprCurve,
    ExprVariation,
    LinearCombination,
    MobiusCurve,
    TrajectoryCurve,
    _quad,
    admissible_variation,
    critical_test,
    delta_fd,
    delta_form,
    functional_IL,
    functional_IS,
    solve_du,
)

AFFINE = MobiusCurve(MobiusFamily(2.0, 1.0, 0.0, 1.0, 0.0), (0.0, 1.0))


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def test_IL_examples():
    assert abs(functional_IL(AFFINE, 0.0, 1.0)) <= 1e-12
    u = ExprCurve("exp(2*t)", (0.0, 1.0))
    assert abs(functional_IL(u, 0.0, 1.0) - 4.0) <= 1e-10


def test_IL_tan_against_fixed_grid_oracle():
    # independent oracle: composite Gauss-Legendre on a fixed fine partition
    u_tan = ExprCurve("tan(t)", (0.0, 1.0))
    val = functional_IL(u_tan, 0.0, 1.0)
    xs, ws = np.polynomial.legendre.leggauss(24)
    acc = 0.0
    edges = np.linspace(0.0, 1.0, 33)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        for x, w in zip(xs, ws):
            j = u_tan.jet(mid + half * x)
            acc += half * w * (j.q / j.p) ** 2
    assert abs(val - acc) <= 1e-10


def test_IS_examples():
    assert abs(functional_IS(AFFINE, 0.0, 1.0)) <= 1e-12
    u = ExprCurve("exp(2*t)", (0.0, 1.0))
    assert abs(functional_IS(u, 0.0, 1.0) + 2.0) <= 1e-10
    u_tan = ExprCurve("tan(t)", (0.0, 0.5))
    assert abs(functional_IS(u_tan, 0.0, 0.5) - 1.0) <= 1e-10


def test_IS_over_a_reversed_interval_is_its_negative():
    # S(tan) = 2, so the integral over (0.1, 1) is 1.8
    u = ExprCurve("tan(t)", (0.1, 1.0))
    assert functional_IS(u, 1.0, 0.1) == -functional_IS(u, 0.1, 1.0)
    assert functional_IS(u, 1.0, 0.1) == pytest.approx(-1.8, abs=1e-10)


def test_IS_boundary_identity_random_curves():
    rng = np.random.default_rng(41)
    for _ in range(10):
        u = random_mobius_curve(rng)
        t0, t1 = u.domain
        ja, jb = u.jet(t0), u.jet(t1)
        lhs = functional_IS(u, t0, t1)
        rhs = (jb.q / jb.p - ja.q / ja.p) - 0.5 * functional_IL(u, t0, t1)
        assert abs(lhs - rhs) <= 1e-9


def test_near_singular_curve_rejected():
    with pytest.raises(SingularJetError):
        ExprCurve("sin(t)", (0.0, 3.2))  # u' = cos t crosses zero
    # u + s*v = 0 at s = 1: the finite difference refuses its stencil
    message = "curve perturbed(expr:t, s=1) has |u'| = 0.00e+00 at t = 0.0"
    with pytest.raises(SingularJetError, match=re.escape(message)):
        delta_fd("I_S", ExprCurve("t", (0.0, 1.0)), ExprVariation("-1*t"), h=1.0)


def test_curve_that_is_not_finite_rejected():
    # 1e308*10 is inf: u = u' = inf on the whole domain
    with pytest.raises(SingularJetError, match=re.escape("curve expr:1e+308*10.0*t is not finite at t = 0.5")):
        ExprCurve("1e308*10*t", (0.5, 2.0))
    # every u + s*v is inf, which the finite difference refuses before integrating
    message = "curve perturbed(expr:t, s=1e-05) is not finite at t = 0.5"
    with pytest.raises(SingularJetError, match=re.escape(message)):
        delta_fd("I_L", ExprCurve("t", (0.5, 1.5)), ExprVariation("1e308*10*t"))


def test_curve_with_a_pole_in_its_domain_rejected():
    # u' keeps its sign across a simple pole, so only the exact pole map
    # (MobiusCurve) or u moving against u' (any curve) can see it
    with pytest.raises(SingularTimeError):
        MobiusCurve(MobiusFamily(1.0, 0.0, 1.0, -0.503, 0.0), (0.0, 1.0))
    with pytest.raises(SingularJetError):
        ExprCurve("1/(t-0.503)", (0.0, 1.0))
    with pytest.raises(SingularJetError):
        ExprCurve("tan(t)", (1.0, 2.0))


def refuse_irregular_loop(name, ts, us, ps):
    """The point-by-point form of variation._refuse_irregular, as the oracle
    of its array form: the same tests, in the same order, at each point."""
    t = next((t for t, u, p in zip(ts.tolist(), us.tolist(), ps.tolist())
              if not (math.isfinite(u) and math.isfinite(p))), None)
    if t is not None:
        raise SingularJetError(f"curve {name} is not finite at t = {t}")
    last_sign, last_u = 0.0, 0.0
    for t, u, p in zip(ts.tolist(), us.tolist(), ps.tolist()):
        if abs(p) < variation.CURVE_P_FLOOR:
            raise SingularJetError(f"curve {name} has |u'| = {abs(p):.2e} at t = {t}")
        sign = math.copysign(1.0, p)
        if last_sign and sign != last_sign:
            raise SingularJetError(f"curve {name} has u' changing sign near t = {t}")
        if last_sign and sign * (u - last_u) < -variation.CURVE_U_ROUNDING * max(abs(u), abs(last_u)):
            raise SingularJetError(
                f"curve {name} has u moving against the sign of u' near t = {t}: a pole lies in its domain"
            )
        last_sign, last_u = sign, u


def refusal(check, ts, us, ps):
    try:
        check("c", ts, us, ps)
    except SingularJetError as e:
        return str(e)
    return None


def irregular_cases():
    """(ts, us, ps) on a 101-point grid: a regular curve, then arrays built
    to trip each refusal, alone, together at one point, or at two points."""
    ts = np.linspace(0.1, 1.3, 101)
    rng = np.random.default_rng(5)
    base = (np.tan(ts), 1.0 / np.cos(ts) ** 2)
    yield ts, *base
    yield ts, -base[0], -base[1]
    for i in (0, 1, 37, 100):
        us, ps = base[0].copy(), base[1].copy()
        ps[i] = 3e-9  # under the floor
        yield ts, us, ps
        ps[i] = -3e-9  # under the floor and a sign flip: the floor is named
        yield ts, us, ps
        ps[i] = -3e-6  # a sign flip, and against u' from there on
        yield ts, us, ps
        us, ps = base[0].copy(), base[1].copy()
        us[i] -= 0.5  # u steps back at i, or forward at i + 1 against -u'
        yield ts, us, ps
        ps[i] = -ps[i]  # flip and step back at one point: the flip is named
        yield ts, us, ps
        us[i], ps[i] = np.nan, 1.0
        yield ts, us, ps
        us, ps = base[0].copy(), base[1].copy()
        us[i] = -np.inf
        yield ts, us, ps
    # a step back no larger than the rounding allowance passes
    us = base[0].copy()
    us[50] = us[49] * (1.0 - 0.5 * variation.CURVE_U_ROUNDING)
    yield ts, us, base[1]
    # u - u_prev rounds to -inf: still a step back, and no numpy warning
    yield ts[:3], np.array([1e308, -1e308, -1e308]), np.ones(3)
    for _ in range(20):
        us = np.cumsum(rng.normal(1.0, 1.0, ts.size))
        ps = rng.choice([1.0, 1.0, 1.0, -1.0], ts.size) * 10.0 ** rng.uniform(-9, 1, ts.size)
        yield ts, us, ps


def test_refuse_irregular_matches_the_point_loop():
    seen = set()
    for ts, us, ps in irregular_cases():
        want = refusal(refuse_irregular_loop, ts, us, ps)
        assert refusal(variation._refuse_irregular, ts, us, ps) == want
        seen.add(want and next(k for k in ("not finite", "|u'| =", "changing sign", "moving against") if k in want))
    # every refusal, and a pass, were seen
    assert seen == {None, "not finite", "|u'| =", "changing sign", "moving against"}


def test_removable_tan_pole_in_the_domain_accepted():
    # u = tan(t)/(tan(t) - 1) is regular at pi/2, where u = A/C = 1
    curve = MobiusCurve(MobiusFamily(1.0, 0.0, 1.0, -1.0, 2.0), (0.9, 2.0))
    jet = curve.jet(math.pi / 2.0)
    assert (jet.u, jet.p) == pytest.approx((1.0, -1.0), rel=1e-15)


# ---------------------------------------------------------------------------
# finite-difference variation
# ---------------------------------------------------------------------------

def test_delta_fd_zero_variation():
    u = ExprCurve("exp(2*t)", (0.0, 1.0))
    assert delta_fd("I_S", u, ExprVariation("0")) == 0.0


def test_delta_fd_quadratic_on_line():
    u = ExprCurve("t", (0.0, 1.0))
    v = ExprVariation("t^2")
    # S(t + s t^2) = O(s^2), so the derivative at s = 0 vanishes to O(h^2)
    assert abs(delta_fd("I_S", u, v)) <= 1e-7


def test_delta_fd_cross_method_on_tan():
    u = ExprCurve("tan(t)", (0.0, 1.0))
    v = BumpFn(0.5, 0.2, 1.0)
    fd = delta_fd("I_S", u, v)
    integral, boundary = delta_form("schwarzian", u, v, 0.0, 1.0)
    assert abs(fd - (integral + boundary)) <= 1e-6


@pytest.mark.parametrize("which, functional", [("I_L", functional_IL), ("I_S", functional_IS)])
def test_delta_fd_equals_the_difference_of_two_expression_curves(which, functional):
    # independent reference: u + h*(v) and u - h*(v) as expression curves,
    # whose jets come from Taylor arithmetic on the whole text, each
    # integrated on its own
    h = 1e-5
    u_text, v_text = "exp(2*t)", "t^2 + sin(t)"
    fd = delta_fd(which, ExprCurve(u_text, (0.0, 1.0)), ExprVariation(v_text), h=h)
    plus, minus = (functional(ExprCurve(f"{u_text} {sign} {h!r}*({v_text})", (0.0, 1.0)), 0.0, 1.0)
                   for sign in "+-")
    assert abs(fd - (plus - minus) / (2.0 * h)) <= 1e-7 * abs(fd)


def test_delta_fd_reads_u_and_v_once_on_the_grid_and_once_per_panel(monkeypatch):
    # both signs share the regularity grid and one _panels walk; two
    # perturbed curves would read u and v twice on each
    u = ExprCurve("tan(t)", (0.0, 1.0))
    v = LinearCombination([(1.0, BumpFn(0.5, 0.2, 1.0))])
    reads = {"u": 0, "v": 0}
    for name, fn in (("u", u), ("v", v)):
        def counted(ts, derivs=fn.derivs, name=name):
            reads[name] += 1
            return derivs(ts)

        monkeypatch.setattr(fn, "derivs", counted)
    walks, panels = [], variation._panels

    def counted_panels(sample, *args):
        walks.append(0)

        def counted_sample(ts):
            walks[-1] += 1
            return sample(ts)

        return panels(counted_sample, *args)

    monkeypatch.setattr(variation, "_panels", counted_panels)
    delta_fd("I_S", u, v)
    assert len(walks) == 1 and walks[0] > 2
    assert reads == {"u": 1 + walks[0], "v": 1 + walks[0]}


def test_delta_fd_richardson():
    u = ExprCurve("exp(2*t)", (0.0, 1.0))
    v = ExprVariation("t^2 + sin(t)")
    base = delta_fd("I_L", u, v)
    tight = delta_fd("I_L", u, v, richardson=True)
    exact = sum(delta_form("direct", u, v, 0.0, 1.0))
    assert abs(base - exact) <= 1e-5 * max(1.0, abs(exact))
    assert abs(tight - exact) <= 1e-6 * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# delta_form
# ---------------------------------------------------------------------------

def test_form_examples():
    # S == 0 annihilates the schwarzian-form integrand on Moebius curves
    v = random_polynomial_variation(np.random.default_rng(1))
    integral, _ = delta_form("schwarzian", AFFINE, v, 0.0, 1.0)
    assert abs(integral) <= 1e-12

    u_line = ExprCurve("t", (0.0, 1.0))
    integral, boundary = delta_form("schwarzian", u_line, ExprVariation("t^2"), 0.0, 1.0)
    assert abs(integral) <= 1e-12
    assert abs(boundary) <= 1e-12  # B = 2 at both ends

    u = ExprCurve("exp(2*t)", (0.0, 1.0))
    bump = BumpFn(0.5, 0.2, 1.0)
    totals = [sum(delta_form(f, u, bump, 0.0, 1.0)) for f in ("direct", "by_parts", "du_factored")]
    assert max(totals) - min(totals) <= 1e-8


def test_forms_agree_on_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(10):
        u = random_mobius_curve(rng, max_ratio=8.0)
        v = random_polynomial_variation(rng)
        t0, t1 = u.domain
        totals = {f: sum(delta_form(f, u, v, t0, t1)) for f in FORMS}
        il = [totals["direct"], totals["by_parts"], totals["du_factored"]]
        assert max(il) - min(il) <= 1e-8
        fd_l = delta_fd("I_L", u, v)
        assert abs(fd_l - totals["direct"]) <= 1e-5 * max(1.0, abs(fd_l))
        fd_s = delta_fd("I_S", u, v)
        assert abs(fd_s - totals["schwarzian"]) <= 1e-5 * max(1.0, abs(fd_s))


def test_quad_not_converged_raises():
    with pytest.raises(QuadratureError, match="did not converge") as info:
        _quad(lambda ts: np.sin(1.0 / ts), 0.0, 1.0)
    assert info.value.abserr > 0.0


def test_quad_of_a_non_finite_integrand_raises():
    with pytest.raises(QuadratureError, match=re.escape("the integrand is not finite on the panel [0, 1]")):
        _quad(lambda ts: np.full(len(ts), np.nan), 0.0, 1.0)


# v = inf * t, so q * v' = 0 * inf is nan, and numpy says so before the panel does
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_form_of_a_non_finite_variation_raises():
    with pytest.raises(QuadratureError, match="the integrand is not finite"):
        delta_form("direct", ExprCurve("t", (0.5, 1.5)), ExprVariation("1e308*10*t"), 0.5, 1.5)


def test_quad_matches_scipy_quad_oracle():
    """_quad against scipy's adaptive quad, kept here as an independent
    oracle, on random integrands from MobiusCurve jets with a kink and a
    bump weight, each edge a breakpoint."""
    from scipy.integrate import quad

    rng = np.random.default_rng(46)
    for _ in range(30):
        u = random_mobius_curve(rng)
        t0, t1 = u.domain
        kink = float(rng.uniform(t0, t1))
        bump = BumpFn(float(rng.uniform(t0, t1)), float(rng.uniform(0.05, 0.5)), float(rng.uniform(-2, 2)))
        c = rng.uniform(-1, 1, size=3)

        def f(t):
            j = u.jet(t)
            return (c[0] * j.u + c[1] * schwarzian(j) * abs(t - kink) + c[2] * j.q / j.p
                    + bump.value(t) * lagrangian(j))

        points = (kink, *bump.support)
        expected = quad(f, t0, t1, points=[x for x in points if t0 < x < t1],
                        epsabs=1e-13, epsrel=1e-13, limit=500)[0]
        assert abs(_quad(lambda ts: np.array([f(t) for t in ts]), t0, t1, points)
                   - expected) <= 1e-12 * max(1.0, abs(expected))


def test_unknown_form_rejected():
    with pytest.raises(ValueError):
        delta_form("form99", AFFINE, ExprVariation("t"), 0.0, 1.0)


class FlatTail(CurveFn):
    """u = t on [0, 1] with u' = 1e-13, below the singularity floor, past
    t = 0.5, built without the regularity check: only the guard of an
    integrand can catch it."""

    domain = (0.0, 1.0)

    def derivs(self, t):
        return np.array([t, np.where(t > 0.5, 1e-13, 1.0), np.ones_like(t), np.ones_like(t)])


@pytest.mark.parametrize("form", FORMS)
def test_form_integrand_guards_before_it_divides(form):
    # a SingularJetError, not a huge value, a ZeroDivisionError or a numpy warning
    with pytest.raises(SingularJetError, match="below singularity floor at t = 0.5"):
        delta_form(form, FlatTail(), ExprVariation("t^2"), 0.0, 1.0)


def test_unknown_functional_is_named():
    with pytest.raises(ValueError, match="'I_X'.*'I_L', 'I_S'"):
        delta_fd("I_X", AFFINE, ExprVariation("t"))


def test_classical_el_vanishing_on_trajectory():
    """A trajectory of the stationarity equation has vanishing first
    variation against variations pinned to first order at the ends."""
    traj = integrate(Jet4(0.0, 0.0, 1.0, 0.4, 0.3), 1.0, 1e-11)
    u = TrajectoryCurve(traj)
    rng = np.random.default_rng(43)
    for _ in range(3):
        c0, c1 = (float(x) for x in rng.uniform(-1, 1, size=2))
        v = ExprVariation(f"t^2*(t - 1.0)^2*({c0!r} + {c1!r}*t)")
        fd = delta_fd("I_L", u, v, h=1e-4)
        assert abs(fd) <= 1e-5


# ---------------------------------------------------------------------------
# solve_du
# ---------------------------------------------------------------------------

def test_solve_du_on_line_is_antiderivative():
    u = ExprCurve("t", (0.0, 1.0))
    bump = BumpFn(0.5, 0.2, 1.0)
    v = solve_du(u, bump, 0.0)
    # for u = t the solution is the running integral of the bump
    from scipy.integrate import quad

    for t in (0.25, 0.5, 0.8):
        expected = quad(bump.value, 0.0, t, points=[0.3, 0.7], epsabs=1e-13)[0]
        assert abs(v.derivs(t)[0] - expected) <= 1e-11
    assert v.residual() <= 1e-9


def test_solve_du_zero_data():
    u = ExprCurve("exp(2*t)", (0.0, 1.0))
    v = solve_du(u, ExprVariation("0"), 0.0)
    for t in (0.0, 0.3, 0.9):
        assert v.derivs(t) == (0.0, 0.0, 0.0, 0.0)


def test_solve_du_kernel_element():
    u = ExprCurve("exp(2*t)", (0.0, 1.0))
    v = solve_du(u, ExprVariation("0"), u.jet(0.0).p)
    for t in (0.1, 0.5, 0.9):
        jet = u.jet(t)
        got = v.derivs(t)
        assert abs(got[0] - jet.p) <= 1e-12 * jet.p
        assert abs(got[1] - jet.q) <= 1e-12 * jet.q


def test_solve_du_two_bumps_on_tan():
    from scipy.integrate import quad

    u = ExprCurve("tan(t)", (0.1, 1.0))
    phi = LinearCombination([(1.0, BumpFn(0.35, 0.15, 1.2)), (-0.7, BumpFn(0.7, 0.2, 0.9))])
    v = solve_du(u, phi, 0.0)
    for t in (0.2, 0.4, 0.5, 0.62, 0.75, 0.95, 1.0):
        expected = quad(lambda s: phi.value(s) / u.jet(s).p, 0.1, t,
                        points=[x for x in phi.breakpoints if x < t], epsabs=1e-14, epsrel=1e-14,
                        limit=200)[0]
        assert abs(v.value(t) / u.jet(t).p - expected) <= 1e-11
    assert v.residual() <= 1e-9


# (center, radius, amplitude) of bumps on tan's (0.1, 1), one of them narrow
ORACLE_BUMPS = [(0.35, 0.15, 1.2), (0.6, 0.05, 0.8), (0.75, 0.2, 1.0)]


@pytest.mark.parametrize("center, radius, amplitude", ORACLE_BUMPS)
def test_du_solution_on_tan_matches_a_30_digit_oracle(center, radius, amplitude):
    # on u = tan, phi/u' = phi cos^2 and S(u) = 2, so W(t) = int_t0^t phi cos^2
    # and schwarzian_integral = 2 W(t1); the oracle integrates phi cos^2 with
    # mpmath at 30 digits, split at the support and its centre
    mp = pytest.importorskip("mpmath")
    t0, t1 = 0.1, 1.0
    v = solve_du(ExprCurve("tan(t)", (t0, t1)), BumpFn(center, radius, amplitude), 0.0)
    with mp.workdps(30):
        c, r, a = mp.mpf(center), mp.mpf(radius), mp.mpf(amplitude)

        def oracle(t):
            t = mp.mpf(t)
            if t <= c - r:
                return mp.mpf(0)
            ends = [c - r] + [c] * (t > c) + [min(t, c + r)]
            return mp.quad(lambda x: a * mp.exp(-1 / (1 - ((x - c) / r) ** 2)) * mp.cos(x) ** 2, ends)

        ts = np.linspace(t0, t1, 13).tolist()
        errors = [abs(mp.mpf(v._cumulative(t)) - oracle(t)) for t in ts]
        integral_error = abs(mp.mpf(v.schwarzian_integral) - 2 * oracle(t1))
    # every panel's two trailing coefficients are <= CHEB_TAIL * scale, the
    # scale about the integrand's peak, below amplitude, and the panels' widths
    # sum to t1 - t0: W is off by about CHEB_TAIL * amplitude * (t1 - t0) at most
    bound = variation.CHEB_TAIL * amplitude * (t1 - t0)
    assert max(errors) <= bound
    assert integral_error <= 2.0 * bound


def test_solve_du_unresolved_phi_raises():
    # about 480 periods do not fit into the panel budget
    with pytest.raises(QuadratureError, match="not resolved"):
        solve_du(ExprCurve("t", (0.0, 1.0)), ExprVariation("sin(3000*t)"), 0.0)


def test_solve_du_residual_random():
    rng = np.random.default_rng(44)
    for _ in range(50):
        u = random_mobius_curve(rng)
        t0, t1 = u.domain
        span = t1 - t0
        center = t0 + span * float(rng.uniform(0.35, 0.65))
        radius = span * float(rng.uniform(0.1, 0.25))
        bump = BumpFn(center, radius, float(rng.uniform(0.5, 1.5)))
        v = solve_du(u, bump, float(rng.uniform(-1, 1)))
        assert v.residual() <= 1e-9


# ---------------------------------------------------------------------------
# admissible variations
# ---------------------------------------------------------------------------

def test_admissible_balanced_bumps_need_no_glue():
    """On u = t with a phi that integrates to zero, the solved variation
    already meets the endpoint condition, so c = 0."""
    u = ExprCurve("t", (0.0, 1.0))
    phi = LinearCombination([(1.0, BumpFn(0.35, 0.12, 0.8)), (-1.0, BumpFn(0.7, 0.12, 0.8))])
    adm = admissible_variation(u, phi, 0.05)
    assert abs(adm.c) <= 1e-11
    assert adm.endpoint_residual() <= 1e-10


def test_quadratic_is_admissible_on_line():
    u = ExprCurve("t", (0.0, 1.0))
    w = ExprVariation("t^2")
    b0 = boundary_B(u.jet(0.0), w.var_jet(0.0))
    b1 = boundary_B(u.jet(1.0), w.var_jet(1.0))
    assert b0 == b1 == 2.0


def test_admissible_endpoint_condition_generic():
    u = ExprCurve("tan(t)", (0.1, 1.0))
    adm = admissible_variation(u, BumpFn(0.6, 0.15, 1.0), 0.045)
    assert adm.endpoint_residual() <= 1e-10
    assert adm.base.residual() <= 1e-9
    # the glue correction is O(eps)
    assert adm.glue_bound() * adm.eps <= 10.0 * adm.eps


def test_admissible_variation_on_a_huge_domain_stays_finite():
    # the glue of a 1e160-long domain is 5e158 wide and its square overflows:
    # written with * and /, every quantity of the probe stays a finite float
    u = ExprCurve("t", (0.0, 1e160))
    adm = admissible_variation(u, BumpFn(5e159, 1e159, 1.0), variation.CRITICAL_EPS * 1e160)
    assert all(math.isfinite(x) for x in (adm.c, adm.delta_IS(), adm.endpoint_residual(), adm.glue_bound()))


def test_admissible_support_check():
    u = ExprCurve("t", (0.0, 1.0))
    with pytest.raises(ValueError):
        admissible_variation(u, BumpFn(0.1, 0.09, 1.0), 0.05)  # support starts left of eps


def test_admissible_support_check_reads_a_negative_radius_bump_in_ascending_order():
    # radius -0.2 gives the support [0.3, 0.7]: its ends are read as the min
    # and max of the breakpoints, whichever way the radius runs
    u = ExprCurve("t", (0.0, 1.0))
    inside = admissible_variation(u, BumpFn(0.5, -0.2, 1.0), 0.05)
    assert inside.delta_IS() == admissible_variation(u, BumpFn(0.5, 0.2, 1.0), 0.05).delta_IS()
    with pytest.raises(ValueError, match=re.escape("bump support [0.7, 1.3] must lie inside (0.05, 1)")):
        admissible_variation(u, BumpFn(1.0, -0.3, 1.0), 0.05)


def test_admissible_variation_refuses_a_variation_without_support():
    u = ExprCurve("t", (0.0, 1.0))
    with pytest.raises(ValueError, match=re.escape("phi must be compactly supported (a bump or combination of bumps)")):
        admissible_variation(u, ExprVariation("t"), 0.05)


def test_admissible_infinite_gain_is_infeasible():
    # (q/p) eps = 1e159 at t0, so the glue's boundary gain overflows to inf
    u = ExprCurve("t + 1e160*t^2", (0.0, 1.0))
    with pytest.raises(InfeasibleVariationError, match=re.escape("(gain = inf)")):
        admissible_variation(u, BumpFn(0.5, 0.2, 1.0), 0.05)


def test_admissible_infeasible_gain():
    # exp(a t) with a = (2 sqrt(3) - 4)/eps makes the glue's boundary
    # density vanish identically, so no c can meet the condition
    eps = 0.05
    a = (2.0 * math.sqrt(3.0) - 4.0) / eps
    u = ExprCurve(f"exp({a!r}*t)", (0.0, 1.0))
    with pytest.raises(InfeasibleVariationError):
        admissible_variation(u, BumpFn(0.5, 0.2, 1.0), eps)


# ---------------------------------------------------------------------------
# critical test
# ---------------------------------------------------------------------------

def test_critical_mobius_passes():
    u = MobiusCurve(MobiusFamily(2, 1, 1, 3, 0.0), (0.0, 1.0))
    report = critical_test(u, 0.0, 1.0, 12, seed=5)
    assert report.witness is None
    assert report.max_delta <= 1e-8
    assert report.is_critical


def test_critical_tan_fails_with_witness():
    u = ExprCurve("tan(t)", (0.1, 1.0))
    report = critical_test(u, 0.1, 1.0, 12, seed=5)
    assert report.witness is not None
    assert abs(report.witness["delta"]) > 1e-3
    assert report.max_endpoint_residual <= 1e-10
    assert report.max_du_residual <= 1e-9


def test_critical_report_verdicts_are_the_gates_read_off_its_fields():
    report = critical_test(ExprCurve("tan(t)", (0.1, 1.0)), 0.1, 1.0, 2, seed=5)
    assert report.endpoint_check_passed and report.du_check_passed
    # properties, not fields: the repr and dataclasses.replace are unchanged
    assert "check_passed" not in repr(report)
    du, endpoint = variation.CRITICAL_DU_GATE, variation.CRITICAL_ENDPOINT_GATE
    for du_resid, endpoint_resid, verdicts in [
        (du, endpoint, (True, True)),
        (math.nextafter(du, 1.0), endpoint, (True, False)),
        (du, math.nextafter(endpoint, 1.0), (False, True)),
        (math.nan, math.nan, (False, False)),
    ]:
        judged = dataclasses.replace(report, max_du_residual=du_resid, max_endpoint_residual=endpoint_resid)
        assert (judged.endpoint_check_passed, judged.du_check_passed) == verdicts
        payload = judged.to_dict()
        assert (payload["endpoint_check_passed"], payload["du_check_passed"]) == verdicts


def test_critical_interval_must_be_the_domain():
    # the variations live on the curve's domain: probing a sub-interval
    # would mix the two
    u = ExprCurve("tan(t)", (0.1, 1.0))
    with pytest.raises(ValueError, match="domain"):
        critical_test(u, 0.3, 0.8, 3, seed=1)


def test_critical_exp_fails_with_witness():
    u = ExprCurve("exp(2*t)", (0.0, 1.0))
    report = critical_test(u, 0.0, 1.0, 12, seed=5)
    assert report.witness is not None
    assert abs(report.witness["delta"]) > 1e-3


def test_delta_IS_matches_schwarzian_form():
    """The linear-functional first variation equals the Schwarzian-form
    quadrature over the whole interval."""
    curves = [
        ExprCurve("tan(t)", (0.1, 1.0)),
        ExprCurve("exp(2*t)", (0.0, 1.0)),
        MobiusCurve(MobiusFamily(1.0, 0.3, 0.2, 1.0, 1.5), (0.0, 1.0)),
        MobiusCurve(MobiusFamily(2, 1, 1, 3, 0.0), (0.0, 1.0)),
    ]
    rng = np.random.default_rng(45)
    for u in curves:
        t0, t1 = u.domain
        for _ in range(3):
            center = t0 + (t1 - t0) * float(rng.uniform(0.35, 0.65))
            radius = (t1 - t0) * float(rng.uniform(0.1, 0.25))
            adm = admissible_variation(u, BumpFn(center, radius, float(rng.uniform(0.5, 1.5))),
                                       0.05 * (t1 - t0))
            reference = sum(delta_form("schwarzian", u, adm, t0, t1))
            assert abs(adm.delta_IS() - reference) <= 1e-12


def test_report_serialization():
    u = MobiusCurve(MobiusFamily(1, 0, 0, 1, 0.0), (0.0, 1.0))
    report = critical_test(u, 0.0, 1.0, 3, seed=1)
    payload = report.to_dict()
    assert set(payload) >= {"u", "interval", "n", "max_delta", "witness"}
    assert payload["witness"] is None


# ---------------------------------------------------------------------------
# variation realizations
# ---------------------------------------------------------------------------

def test_bump_derivatives_match_finite_differences():
    bump = BumpFn(0.5, 0.3, 1.2)
    h = 1e-6
    for t in (0.3, 0.45, 0.6, 0.74):
        v0, v1, v2, v3 = bump.derivs(t)
        fd1 = (bump.value(t + h) - bump.value(t - h)) / (2 * h)
        fd2 = (bump.value(t + h) - 2 * bump.value(t) + bump.value(t - h)) / h ** 2
        assert abs(v1 - fd1) <= 1e-6 * max(1.0, abs(v1))
        assert abs(v2 - fd2) <= 1e-3 * max(1.0, abs(v2))
    assert bump.derivs(0.19999) == (0.0, 0.0, 0.0, 0.0)
    assert bump.value(2.0) == 0.0
    assert bump.support == (0.2, 0.8)


def test_bump_value_is_the_first_derivs_entry():
    # value reads the same formula as derivs, at order 0: == at every point
    rng = np.random.default_rng(31)
    for _ in range(200):
        bump = BumpFn(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.5, 1.5)))
        lo, hi = bump.support
        for t in rng.uniform(lo, hi, 50).tolist():
            assert bump.value(t) == bump.derivs(t)[0]


@pytest.mark.parametrize("t", [0.7, np.float64(0.7), 2], ids=["float", "float64", "int"])
def test_expr_variation_reads_have_the_bits_of_taylor_eval(t):
    # derivs and fourth run the program on t's series directly
    v = ExprVariation("exp(t)*sin(t) + ln(t)/t^2 - tan(t/3)")
    want = [*derivatives(taylor_eval(v.program, {"t": TaylorScalar.variable(t, 3)}).coeffs),
            taylor_eval(v.program, {"t": TaylorScalar.variable(t, 4)}).derivative(4)]
    got = [*v.derivs(t), v.fourth(t)]
    assert {type(x) for x in got} == {float}
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("t", [-1.0, np.float64(-1.0), -1], ids=["float", "float64", "int"])
@pytest.mark.parametrize("order", [3, 4])
def test_expr_variation_reads_outside_the_domain_raise_as_taylor_eval_does(t, order):
    v = ExprVariation("ln(t)")
    with pytest.raises(EvalDomainError) as want:
        taylor_eval(v.program, {"t": TaylorScalar.variable(t, order)})
    with pytest.raises(EvalDomainError) as got:
        v.derivs(t) if order == 3 else v.fourth(t)
    assert str(got.value) == str(want.value) == "ln of a non-positive series value at t = -1.0"


def test_linear_combination():
    a = ExprVariation("t^2")
    b = ExprVariation("sin(t)")
    combo = LinearCombination([(2.0, a), (-1.0, b)])
    t = 0.7
    expected = tuple(2 * x - y for x, y in zip(a.derivs(t), b.derivs(t)))
    assert combo.derivs(t) == pytest.approx(expected, abs=0, rel=1e-15)


CURVES_OF_T = {
    "mobius": lambda: MobiusCurve(MobiusFamily(1.0, 0.0, 0.0, 1.0, 2.0), (0.0, 1.0)),
    "expr": lambda: ExprCurve("tan(t)", (0.0, 1.0)),
    "trajectory": lambda: TrajectoryCurve(integrate(Jet4(0, 0, 1, 0, 2), 1.0, 1e-10)),
}


@pytest.mark.parametrize("kind", sorted(CURVES_OF_T))
def test_curve_is_a_variation_on_its_domain(kind):
    # a curve's derivs is its jet, so u + s*v and any combination of
    # curves and variations are read through LinearCombination, exactly
    u = CURVES_OF_T[kind]()
    v = ExprVariation("0.3*t^2 + sin(t)")
    bump = BumpFn(0.5, 0.3, 0.8)
    s = 0.01
    perturbed = LinearCombination([(1.0, u), (s, v)])
    mixed = LinearCombination([(1.0, u), (-0.5, bump)])
    for t in (0.2, 0.5, 0.9):
        jet = u.jet(t)
        assert u.derivs(t) == (jet.u, jet.p, jet.q, jet.r)
        v0, v1, v2, v3 = v.derivs(t)
        assert perturbed.derivs(t) == (jet.u + s * v0, jet.p + s * v1, jet.q + s * v2, jet.r + s * v3)
        assert mixed.derivs(t) == tuple(a - 0.5 * b for a, b in zip(u.derivs(t), bump.derivs(t)))
        if kind == "expr":
            assert u.fourth(t) == ExprVariation("tan(t)").fourth(t)


def test_function_of_t_without_derivatives_raises():
    class Bare(CurveFn):
        pass

    with pytest.raises(NotImplementedError):
        Bare().derivs(0.5)
    with pytest.raises(NotImplementedError):
        Bare().derivs(np.array([0.5]))
    with pytest.raises(NotImplementedError):
        Bare().jet(0.5)


def test_trajectory_curve_fourth():
    traj = integrate(Jet4(0, 0, 1, 0, 2), 1.0, 1e-10)
    u = TrajectoryCurve(traj)
    jet = u.jet(0.5)
    oracle = family_eval_jet(MobiusFamily(1, 0, 0, 1, 2.0), 0.5)
    assert abs(jet.u - oracle.u) <= 1e-8
    # fourth derivative from the equation itself
    from schwarzlab.schwarzian import el_rhs

    assert u.fourth(0.5) == el_rhs(jet)


# ---------------------------------------------------------------------------
# batch evaluation: derivs(ts) on a whole array of nodes
# ---------------------------------------------------------------------------

FUNCTIONS_OF_T = {
    "expr-variation": lambda: ExprVariation("0.3*t^2 + sin(t) - exp(t/2) + ln(2 + t) + tan(t/3) + 1/(3 - t)"),
    "bump": lambda: BumpFn(0.5, 0.3, 0.8),
    "linear-combination": lambda: LinearCombination([(2.0, ExprVariation("t^3")), (-1.0, BumpFn(0.4, 0.2))]),
    "curve-plus-bump": lambda: LinearCombination([(1.0, CURVES_OF_T["mobius"]()), (-0.5, BumpFn(0.5, 0.3, 0.8))]),
    "perturbed": lambda: LinearCombination([(1.0, CURVES_OF_T["expr"]()), (0.01, ExprVariation("0.3*t^2 + sin(t)"))]),
    "du-solution": lambda: solve_du(CURVES_OF_T["mobius"](), BumpFn(0.5, 0.3), 0.2),
    "du-solution-on-trajectory": lambda: solve_du(CURVES_OF_T["trajectory"](), BumpFn(0.5, 0.3), 0.2),
    "admissible": lambda: admissible_variation(CURVES_OF_T["expr"](), BumpFn(0.5, 0.3), 0.05),
    **{f"curve-{kind}": make for kind, make in CURVES_OF_T.items()},
}


@pytest.mark.parametrize("kind", sorted(FUNCTIONS_OF_T))
def test_batch_derivs_equal_the_scalar_path(kind):
    # every value ==, not close: the batch path must give the scalar numbers
    fn = FUNCTIONS_OF_T[kind]()
    ts = np.concatenate([np.linspace(0.0, 1.0, 41), np.random.default_rng(5).uniform(0.0, 1.0, 20)])
    got = fn.derivs(ts)
    assert got.shape == (4, len(ts))
    assert np.array_equal(got, np.array([fn.derivs(t) for t in ts.tolist()]).T)
    assert all(type(x) is float for t in ts.tolist() for x in fn.derivs(t))
    assert np.array_equal(fn.value(ts), np.array([fn.value(t) for t in ts.tolist()]))
    if isinstance(fn, CurveFn):
        jets = [fn.jet(t) for t in ts.tolist()]
        assert np.array_equal(got, np.array([(j.u, j.p, j.q, j.r) for j in jets]).T)


def test_mobius_batch_derivs_equal_jets_on_random_families():
    rng = np.random.default_rng(29)
    for cls in ("hyperbolic", "parabolic", "elliptic"):
        for _ in range(10):
            u = random_mobius_curve(rng, cls)
            t0, t1 = u.domain
            ts = np.concatenate([np.linspace(t0, t1, 101), rng.uniform(t0, t1, 100)])
            jets = [u.jet(t) for t in ts.tolist()]
            assert np.array_equal(u.derivs(ts), np.array([(j.u, j.p, j.q, j.r) for j in jets]).T)


@pytest.mark.parametrize("family, pole", [
    (MobiusFamily(1.0, 0.0, 1.0, -0.5, 0.0), 0.5),
    (MobiusFamily(1.0, 0.0, 0.0, 1.0, 2.0), math.pi / 2),
], ids=["parabolic", "elliptic"])
def test_mobius_batch_derivs_raise_over_a_pole_as_jet_does(family, pole):
    u = MobiusCurve(family, (0.0, 0.4))
    with pytest.raises(SingularTimeError):
        u.jet(pole)
    with pytest.raises(SingularTimeError, match=re.escape(f"t = {pole!r}")):
        u.derivs(np.array([0.1, 0.3, pole, pole + 0.2]))


# ---------------------------------------------------------------------------
# the memo of derivs reads: each function of t keeps its last MEMO_SIZE reads
# ---------------------------------------------------------------------------

def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("kind", sorted(FUNCTIONS_OF_T))
def test_memoized_reads_equal_the_unmemoized_read_arrays_and_scalar_path(kind):
    # bit for bit, so -0.0 read right after 0.0 and an int array read after
    # the float array of the same values each get their own result
    fn = FUNCTIONS_OF_T[kind]()
    unmemoized = type(fn).derivs.__wrapped__
    for t in (0.37, 0.0, -0.0, 0.37, -0.0):
        got = fn.derivs(t)
        assert type(got) is tuple and bits(got) == bits(unmemoized(fn, t))
    for ts in (np.array([0.0, 0.25, 1.0]), np.array([0.0, 1.0]), np.array([0, 1]), np.array([-0.0, 1.0]),
               np.array([0.0, 1.0])):
        got = fn.derivs(ts)
        want = unmemoized(fn, ts)
        assert got.shape == want.shape and bits(got) == bits(want)


def test_memo_keeps_minus_zero_apart_scalar_path():
    v = ExprVariation("t")
    assert math.copysign(1.0, v.derivs(0.0)[0]) == 1.0
    assert math.copysign(1.0, v.derivs(-0.0)[0]) == -1.0


@pytest.mark.parametrize("kind", sorted(FUNCTIONS_OF_T))
def test_memoized_arrays_are_read_only(kind):
    fn = FUNCTIONS_OF_T[kind]()
    ts = np.linspace(0.1, 0.9, 7)
    got = fn.derivs(ts)
    assert fn.derivs(ts.copy()) is got
    with pytest.raises(ValueError, match="read-only"):
        got[0, 0] = 1.0


@pytest.mark.parametrize("kind", sorted(FUNCTIONS_OF_T))
def test_memo_arrays_keep_the_last_MEMO_SIZE_reads(kind):
    fn = FUNCTIONS_OF_T[kind]()
    nodes = [np.linspace(0.1, 0.8, 5) + 0.01 * k for k in range(variation.MEMO_SIZE + 1)]
    reads = [fn.derivs(ts) for ts in nodes]
    # the first of MEMO_SIZE + 1 distinct reads is computed again, and that
    # read puts out the least recent of the others
    again = fn.derivs(nodes[0])
    assert again is not reads[0] and bits(again) == bits(reads[0])
    assert fn.derivs(nodes[2]) is reads[2]
    assert fn.derivs(nodes[1]) is not reads[1]


@pytest.mark.parametrize("make, t, error", [
    (lambda: ExprVariation("ln(t - 0.5)"), 0.2, EvalDomainError),
    (lambda: ExprVariation("ln(t - 0.5)"), np.array([0.9, 0.2]), EvalDomainError),
    (lambda: MobiusCurve(MobiusFamily(1.0, 0.0, 1.0, -0.5, 0.0), (0.0, 0.4)), 0.5, SingularTimeError),
    (lambda: MobiusCurve(MobiusFamily(1.0, 0.0, 1.0, -0.5, 0.0), (0.0, 0.4)), np.array([0.1, 0.5]),
     SingularTimeError),
    (CURVES_OF_T["trajectory"], 1.5, ValueError),
    (CURVES_OF_T["trajectory"], np.array([0.5, 1.5]), ValueError),
], ids=["expr", "expr-arrays", "mobius", "mobius-arrays", "trajectory", "trajectory-arrays"])
def test_memo_arrays_and_scalar_path_store_no_read_that_raises(make, t, error):
    fn = make()
    for _ in range(2):
        with pytest.raises(error):
            fn.derivs(t)


def test_six_forms_calls_read_v_at_most_4_times_on_shared_arrays(monkeypatch):
    # the three forms, delta_fd and both functionals walk the same panels of
    # [t0, t1]: v is read on them, at both ends and on the regularity grid,
    # and u, which read that grid when it was built, on the rest
    u = MobiusCurve(MobiusFamily(1.0, 0.3, 0.2, 1.0, 1.5), (0.0, 1.0))
    v = ExprVariation("0.2 + 0.5*t - 0.3*t^2 + 0.1*t^3 + 0.7*sin(t)")
    calls = {"v": 0, "family_derivs": 0}
    # v's series come from runs of its program, u's jets from family_derivs
    for name, owner, attr in (("v", v.program, "run"), ("family_derivs", variation, "family_derivs")):
        def counted(*args, name=name, inner=getattr(owner, attr)):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, attr, counted)
    for form in ("direct", "by_parts", "du_factored"):
        delta_form(form, u, v, 0.0, 1.0)
    delta_fd("I_L", u, v)
    functional_IS(u, 0.0, 1.0)
    functional_IL(u, 0.0, 1.0)
    assert 1 <= calls["v"] <= 4
    assert calls["family_derivs"] <= 3


# ---------------------------------------------------------------------------
# the panel walk: one sample call per bisection level, W in one Clenshaw pass
# ---------------------------------------------------------------------------

def depth_first_panels(sample, a, b, breakpoints, floor=0.0):
    """The panels of _panels from a walk that samples and fits one panel at a
    time, depth first, with the same cap; None where the cap is hit."""
    def fit(lo, hi):
        return variation._CHEB_FIT @ sample(0.5 * (lo + hi) + 0.5 * (hi - lo) * variation._CHEB_NODES)

    edges = sorted({a, b} | {float(x) for x in breakpoints if a < x < b})
    stack = [(lo, hi, fit(lo, hi)) for lo, hi in reversed(list(zip(edges[:-1], edges[1:])))]
    tol = max(variation.CHEB_TAIL * max(np.abs(coef).max() for *_, coef in stack), floor)
    done = []
    while stack:
        lo, hi, coef = stack.pop()
        if np.abs(coef[-2:]).max() <= tol:
            done.append((lo, hi, 0.5 * (hi - lo) * (variation._CHEB_INT @ coef)))
        elif len(done) + len(stack) >= variation.CHEB_MAX_PANELS:
            return None
        else:
            m = 0.5 * (lo + hi)
            stack += [(m, hi, fit(m, hi)), (lo, m, fit(lo, m))]
    return done


def captured_walk(monkeypatch, build):
    """(sample, a, b, breakpoints, floor, expected) of the one _panels walk
    that build() makes, each input as the walk reads it."""
    walks, panels = [], variation._panels
    # the walk that derives the bump's panel tree, on the first walk over a bump, is not build()'s
    variation._bump_leaves()

    def capture(sample, a, b, breakpoints, floor=0.0, expected=()):
        walks.append((sample, a, b, breakpoints, floor, expected))
        return panels(sample, a, b, breakpoints, floor, expected)

    monkeypatch.setattr(variation, "_panels", capture)
    build()
    monkeypatch.setattr(variation, "_panels", panels)
    assert len(walks) == 1
    return walks[0]


TAN = ExprCurve("tan(t)", (0.1, 1.4))
TWO_BUMPS = LinearCombination([(1.0, BumpFn(0.35, 0.15, 1.2)), (-0.7, BumpFn(0.7, 0.2, 0.9))])

# (curve, bump) of DuSolution walks over one bump: its panel tree holds on a
# tan and a sigma != 0 Moebius curve; exp(8t)'s integrand needs panels below
# the tree, and tan(t - 0.5)'s, whose 1/u' vanishes at the support's ends,
# leaves some of the tree's panels unreached
LONE_BUMPS = {
    "tan": (TAN, BumpFn(0.8, 0.3, 1.1)),
    "mobius": (MobiusCurve(MobiusFamily(1.0, 0.3, 0.2, 1.0, 1.5), (0.0, 1.0)), BumpFn(0.5, 0.3, 0.8)),
    "deeper": (ExprCurve("exp(8*t)", (0.0, 1.0)), BumpFn(0.5, 0.4)),
    "shallower": (ExprCurve("tan(t - 0.5)", (-1.0, 2.0)), BumpFn(0.5, 1.5)),
}

# (sample, a, b, breakpoints, floor, expected) of one walk each
WALKS = {
    "tan-curve": lambda mp: (lambda ts: lagrangian(TAN.jet(ts)), 0.1, 1.4, (), variation.QUAD_EPS, ()),
    "two-bump-du-solution": lambda mp: captured_walk(mp, lambda: solve_du(TAN, TWO_BUMPS, 0.0)),
    "sin-40t": lambda mp: (ExprVariation("sin(40*t)").value, 0.0, 3.0, (1.0,), variation.QUAD_EPS, ()),
    **{f"lone-bump-{kind}": lambda mp, u=u, phi=phi: captured_walk(mp, lambda: solve_du(u, phi, 0.0))
       for kind, (u, phi) in LONE_BUMPS.items()},
    # the densities of u + s*v for s = +-h, and for s = +-h, +-h/2
    "delta-fd": lambda mp: captured_walk(mp, lambda: delta_fd("I_L", TAN, BumpFn(0.9, 0.4, 0.7))),
    "delta-fd-richardson": lambda mp: captured_walk(
        mp, lambda: delta_fd("I_L", TAN, BumpFn(0.9, 0.4, 0.7), richardson=True)),
}
# the columns of each walk's integrand, 1 for a 1-D one; DuSolution's
# walks, absent here, have 2: phi/u' and S(u) phi/u'
WALK_COLUMNS = {"tan-curve": 1, "sin-40t": 1, "delta-fd": 2, "delta-fd-richardson": 4}


@pytest.mark.parametrize("kind", sorted(WALKS))
def test_panels_by_level_arrays_equal_the_depth_first_walk(kind, monkeypatch):
    sample, a, b, breakpoints, floor, expected = WALKS[kind](monkeypatch)
    assert bool(expected) == kind.startswith("lone-bump")
    got = variation._panels(sample, a, b, breakpoints, floor, expected)
    want = depth_first_panels(sample, a, b, breakpoints, floor)
    assert len(got) == len(want) > len(breakpoints) + 4  # the walk bisected
    for (lo, hi, antideriv), (lo_want, hi_want, antideriv_want) in zip(got, want):
        assert (lo, hi) == (lo_want, hi_want)
        assert antideriv.shape == antideriv_want.shape
        assert antideriv.tobytes() == antideriv_want.tobytes()
    # the product over the stacked panels is, slice by slice, each panel's own fit
    nodes = [0.5 * (lo + hi) + 0.5 * (hi - lo) * variation._CHEB_NODES for lo, hi, _ in got]
    values = sample(np.concatenate(nodes))
    assert values.reshape(len(values), -1).shape[1] == WALK_COLUMNS.get(kind, 2)
    stacked = variation._CHEB_FIT @ values.reshape(len(got), variation.CHEB_N, -1)
    for coef, ts in zip(stacked, nodes):
        assert coef.tobytes() == (variation._CHEB_FIT @ sample(ts)).tobytes()


@pytest.mark.parametrize("kind", sorted(WALKS))
def test_panels_by_level_arrays_sample_once_per_level(kind, monkeypatch):
    # the walk with no expected panels
    sample, a, b, breakpoints, floor, _ = WALKS[kind](monkeypatch)
    nodes = []

    def counted(ts):
        nodes.append(len(ts))
        return sample(ts)

    done = variation._panels(counted, a, b, breakpoints, floor)
    edges = sorted({a, b} | {x for x in breakpoints if a < x < b})

    def level(lo, hi):
        # the bisections between the panel and the initial panel it lies in
        i = bisect.bisect_right(edges, lo)
        return round(math.log2((edges[i] - edges[i - 1]) / (hi - lo)))

    assert len(nodes) == max(level(lo, hi) for lo, hi, _ in done) + 1 > 2
    # each level on CHEB_N nodes a panel; the walk fitted the initial panels
    # and both halves of each bisected one, and a bisection adds one panel
    initial = len(edges) - 1
    assert nodes[0] == variation.CHEB_N * initial
    assert sum(nodes) == variation.CHEB_N * (initial + 2 * (len(done) - initial))


def reached_panels(sample, a, b, breakpoints, floor):
    """The panels a walk samples, level by level: those of the depth-first
    walk and every panel it bisected."""
    leaves = {(lo, hi) for lo, hi, _ in depth_first_panels(sample, a, b, breakpoints, floor)}
    edges = sorted({a, b} | {float(x) for x in breakpoints if a < x < b})
    level, levels = list(zip(edges[:-1], edges[1:])), []
    while level:
        levels.append(level)
        level = [half for lo, hi in level if (lo, hi) not in leaves
                 for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]
    return levels


@pytest.mark.parametrize("kind", sorted(LONE_BUMPS))
def test_panel_tree_walk_samples_the_tree_once_then_what_it_lacks_by_level(kind, monkeypatch):
    sample, a, b, breakpoints, floor, expected = WALKS[f"lone-bump-{kind}"](monkeypatch)
    nodes = []

    def counted(ts):
        nodes.append(len(ts))
        return sample(ts)

    variation._panels(counted, a, b, breakpoints, floor, expected)
    levels = reached_panels(sample, a, b, breakpoints, floor)
    reached = {panel for level in levels for panel in level}
    lacking = [[panel for panel in level if panel not in set(expected)] for level in levels]
    # the tree in one call, then each level that reaches past it in one call
    assert nodes == [variation.CHEB_N * len(expected)] + [variation.CHEB_N * len(level) for level in lacking if level]
    if kind == "deeper":
        assert len(nodes) > 1
    else:
        # the tree holds: a single sample call
        assert len(nodes) == 1
    if kind == "shallower":
        assert reached < set(expected)
    elif kind != "deeper":
        assert reached == set(expected)


def test_panel_tree_walk_samples_once_on_random_bumps(monkeypatch):
    # on u = t, W's integrand is the bump itself, so its tree holds on every
    # support: a replay whose midpoints were not the walk's own floats would
    # miss some of the walk's panels on a few percent of these supports
    u = ExprCurve("t", (0.0, 1.0))
    rng = np.random.default_rng(3)
    calls, panels = [], variation._panels
    variation._bump_leaves()

    def counted(sample, *args):
        calls.append(0)

        def counted_sample(ts):
            calls[-1] += 1
            return sample(ts)

        return panels(counted_sample, *args)

    monkeypatch.setattr(variation, "_panels", counted)
    for _ in range(300):
        center = rng.uniform(0.2, 0.8)
        solve_du(u, BumpFn(center, rng.uniform(0.3, 0.9) * min(center, 1.0 - center), 1.0), 0.0)
    assert calls == [1] * 300


def test_a_negative_radius_bump_seeds_its_walk_from_its_sorted_ends(monkeypatch):
    # BumpFn(c, -r) is BumpFn(c, r): its walk fits its seeded panels in one
    # call, and gives the same W and schwarzian_integral
    u = ExprCurve("t", (0.0, 1.0))
    variation._bump_leaves()
    calls, fit = [], variation._fit

    def counted(*args):
        calls.append(0)
        return fit(*args)

    monkeypatch.setattr(variation, "_fit", counted)
    sols = []
    for radius in (0.2, -0.2):
        calls.clear()
        sols.append(solve_du(u, BumpFn(0.5, radius, 1.0), 0.0))
        assert len(calls) == 1, radius
    ts = np.linspace(0.0, 1.0, 101)
    assert sols[0]._cumulative(ts).tolist() == sols[1]._cumulative(ts).tolist()
    assert sols[0].schwarzian_integral == sols[1].schwarzian_integral


# a synthetic integrand on the bare bump's walk over [-1, 1]: the profile,
# with a fault at the nodes of one panel, one the walk reaches or one that
# only the expected panels hold, below a panel the walk does not bisect
FAULTY_PANELS = {"reached": (0.9375, 0.96875), "unreached": (0.5, 0.625)}


@pytest.mark.parametrize("where", sorted(FAULTY_PANELS))
@pytest.mark.parametrize("fault", ["raises", "nan"])
def test_panel_tree_walk_raises_what_the_level_walk_raises(fault, where):
    lo, hi = FAULTY_PANELS[where]
    bad = 0.5 * (lo + hi) + 0.5 * (hi - lo) * variation._CHEB_NODES
    profile = BumpFn(0.0, 1.0).value

    def sample(ts):
        hit = np.isin(ts, bad)
        if fault == "raises" and hit.any():
            raise EvalDomainError(f"no value on [{lo}, {hi}]")
        return np.where(hit, np.nan, profile(ts))

    expected = variation._bump_tree(-1.0, 1.0) + [(0.5, 0.625), (0.625, 0.75)]

    def outcome(*expected):
        try:
            return variation._panels(sample, -1.0, 1.0, (), 0.0, *expected)
        except Exception as error:
            return type(error), str(error)

    want = outcome()
    got = outcome(expected)
    if where == "reached":
        assert got == want
        assert want[0] is (EvalDomainError if fault == "raises" else QuadratureError)
        assert f"[{lo:g}, {hi:g}]" in want[1]
    else:
        # never tested, so the walk is the one without a fault
        assert [(p, q, c.tobytes()) for p, q, c in got] == [(p, q, c.tobytes()) for p, q, c in want]
        assert len(want) == 12


# (curve, phi, v0) of the DuSolutions whose W is read: a sum of bumps, and
# a lone bump, whose walk takes the bump's panel tree
W_READS = {"two-bumps": (TAN, TWO_BUMPS, 0.3), "lone-bump": (*LONE_BUMPS["tan"], -0.4)}


def test_du_solution_cumulative_arrays_equal_per_panel_chebval(monkeypatch):
    from numpy.polynomial.chebyshev import chebval

    for kind, (u, phi, v0) in W_READS.items():
        v = None

        def build():
            nonlocal v
            v = solve_du(u, phi, v0)

        sample, a, b, breakpoints, floor, expected = captured_walk(monkeypatch, build)
        assert bool(expected) == (kind == "lone-bump")
        # W panel by panel, as a walk over the panels with one chebval each
        pieces, total = [], np.zeros(2)
        for lo, hi, antideriv in variation._panels(sample, a, b, breakpoints, floor, expected):
            pieces.append((lo, hi, float(total[0]), antideriv[:, 0]))
            total += antideriv.sum(axis=0)

        def w(t):
            t = min(max(t, a), b)
            lo, hi, offset, coef = pieces[max(bisect.bisect_right([p[0] for p in pieces], t) - 1, 0)]
            return offset + chebval((2.0 * t - lo - hi) / (hi - lo), coef)

        # t0, t1, each panel's left end, points just and far outside [t0,
        # t1], and random points that reach past both ends
        ts = np.concatenate([[a, b, np.nextafter(a, -np.inf), np.nextafter(b, np.inf), a - 1.0, b + 1.0],
                             [p[0] for p in pieces], np.random.default_rng(17).uniform(a - 0.05, b + 0.05, 300)])
        want = np.array([w(t) for t in ts.tolist()])
        assert len(pieces) > 10
        assert v._cumulative(ts).tobytes() == want.tobytes()
        # a read at a float, a numpy float or an int is a Python float, with chebval's bits
        ints = list(range(math.floor(a) - 1, math.ceil(b) + 2))
        for reads, want_reads in (([float(t) for t in ts], want), ([np.float64(t) for t in ts], want),
                                  (ints, np.array([w(float(t)) for t in ints]))):
            got = [v._cumulative(t) for t in reads]
            assert {type(x) for x in got} == {float}
            assert np.array(got).tobytes() == want_reads.tobytes()


@pytest.mark.parametrize("k", [1529.5, 1545.5])
def test_panels_by_level_arrays_keep_the_panel_cap(k):
    # near the cap of 500 panels: with numpy's dispatched sin kernels,
    # sin(1529.5 t) takes 501 panels and sin(1545.5 t) 502; whatever the
    # counts, the level walk refuses exactly where the depth-first walk does
    sample = ExprVariation(f"sin({k}*t)").value
    want = depth_first_panels(sample, 0.0, 1.0, ())
    if want is None:
        with pytest.raises(QuadratureError, match="not resolved in 500 Chebyshev panels"):
            variation._panels(sample, 0.0, 1.0, ())
    else:
        got = variation._panels(sample, 0.0, 1.0, ())
        assert [(lo, hi) for lo, hi, _ in got] == [(lo, hi) for lo, hi, _ in want]


def test_panels_by_level_arrays_raise_on_an_unresolved_phi():
    # test_solve_du_unresolved_phi_raises, named for the baseline-kernels CI step
    with pytest.raises(QuadratureError, match="did not converge: not resolved in 500 Chebyshev panels"):
        solve_du(ExprCurve("t", (0.0, 1.0)), ExprVariation("sin(3000*t)"), 0.0)


def test_panels_by_level_arrays_raise_on_a_non_finite_integrand():
    # finite left of the breakpoint, nan right of it: the right panel is named
    def sample(ts):
        return np.where(ts > 0.5, np.nan, ts)

    with pytest.raises(QuadratureError, match=re.escape("the integrand is not finite on the panel [0.5, 1]")):
        _quad(sample, 0.0, 1.0, (0.5,))

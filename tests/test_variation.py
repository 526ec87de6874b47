"""Variational machinery: functionals, equivalent first-variation forms,
the integrating-factor solver, admissible variations, and the critical-point
test."""

import math
import re

import numpy as np
import pytest

from conftest import random_mobius_curve, random_polynomial_variation
from schwarzlab import variation
from schwarzlab.closed_form import MobiusFamily, family_eval_jet
from schwarzlab.el_ode import integrate
from schwarzlab.errors import InfeasibleVariationError, QuadratureError, SingularJetError, SingularTimeError
from schwarzlab.schwarzian import Jet4, boundary_B, lagrangian, schwarzian
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


def test_admissible_support_check():
    u = ExprCurve("t", (0.0, 1.0))
    with pytest.raises(ValueError):
        admissible_variation(u, BumpFn(0.1, 0.09, 1.0), 0.05)  # support starts left of eps


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

"""Generic invariant engine and linearization tests."""

import math

import numpy as np

from conftest import random_jet
from schwarzlab.closed_form import MobiusFamily
from schwarzlab.el_ode import integrate
from schwarzlab.ode_geometry import (
    LinearizedOde,
    OdeField,
    el_field,
    linearize,
    verify_linear_basis,
    w0,
    w1,
)
from schwarzlab.schwarzian import Jet4, schwarzian
from schwarzlab.symbolics import eval_scalar

EL = el_field()
EXP_BASE = MobiusFamily(1, 0, 0, 1, -0.5)  # realises e^t
LINE_BASE = MobiusFamily(1, 0, 0, 1, 0.0)
TAN_BASE = MobiusFamily(1, 0, 0, 1, 2.0)

EXP_BASIS = ["exp(t)", "t*exp(t)", "exp(2*t)", "1"]
TAN_BASIS = ["tan(t)", "t/cos(t)^2", "tan(t)^2", "1"]
POLY_BASIS = ["t^3", "t^2", "t", "1"]


# ---------------------------------------------------------------------------
# W1 / W0
# ---------------------------------------------------------------------------

def test_w1_vanishes_on_el_field():
    assert abs(w1(EL, Jet4(0, 0, 1, 0, 2))) <= 1e-12
    assert abs(w1(EL, Jet4(0, 1, 2, 4, 8))) <= 1e-12


def test_w1_trivial_field():
    zero = OdeField.from_expression("0")
    assert w1(zero, Jet4(0.3, -1, 2, 5, 7)) == 0.0


def test_w0_values():
    tan_jet = Jet4(0, 0, 1, 0, 2)
    assert abs(w0(EL, tan_jet) - (-0.36 * 4.0)) <= 1e-12
    assert abs(w0(EL, Jet4(0, 0, 1, 0, 0))) <= 1e-12
    zero = OdeField.from_expression("0")
    assert w0(zero, Jet4(0.3, -1, 2, 5, 7)) == 0.0


def test_w1_constant_for_third_derivative_field():
    # F = r: F_r = 1, all other terms vanish, so W1 = -3/8 everywhere
    field = OdeField.from_expression("r")
    rng = np.random.default_rng(2)
    for _ in range(10):
        j = random_jet(rng)
        assert abs(w1(field, j) + 0.375) <= 1e-12


def test_w_identities_on_random_jets():
    rng = np.random.default_rng(3)
    for _ in range(50):
        j = random_jet(rng, 0.1, 10.0)
        assert abs(w1(EL, j)) <= 1e-9
        s = schwarzian(j)
        value = w0(EL, j)
        assert abs(value + 0.36 * s * s) <= 1e-9 * max(1.0, abs(value))


def test_affine_rescaling_invariance():
    """u -> lambda*u + mu preserves the field and both invariants."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        j = random_jet(rng, 0.2, 5.0)
        lam = float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1, 1]))
        mu = float(rng.uniform(-2, 2))
        jj = Jet4(j.t, lam * j.u + mu, lam * j.p, lam * j.q, lam * j.r)
        for fn in (w0, w1):
            a, b = fn(EL, j), fn(EL, jj)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_field_partials_match_finite_differences():
    rng = np.random.default_rng(5)
    for source in ("-3*q^3/p^2 + 4*q*r/p", "sin(q)*r + exp(u)", "t*r - p*q"):
        field = OdeField.from_expression(source)
        for _ in range(10):
            j = random_jet(rng, 0.3, 2.0)
            env = j.as_dict()
            for var, part in (("p", field.Fp), ("q", field.Fq), ("r", field.Fr)):
                hi, lo = dict(env), dict(env)
                hi[var] += 1e-5
                lo[var] -= 1e-5
                fd = (eval_scalar(field.F, hi) - eval_scalar(field.F, lo)) / 2e-5
                sym = eval_scalar(part, env)
                assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym), abs(fd))


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def test_linearize_along_line():
    assert linearize(EL, LINE_BASE, 0.7) == (0.0, 0.0, 0.0)


def test_linearize_along_exponential():
    for t in (0.0, 0.3, 1.1):
        a1, a2, a3 = linearize(EL, EXP_BASE, t)
        assert abs(a1 - 2.0) <= 1e-10
        assert abs(a2 + 5.0) <= 1e-10
        assert abs(a3 - 4.0) <= 1e-10


def test_linearize_along_tangent():
    for t in (0.0, 0.4, 1.0):
        T = math.tan(t)
        a1, a2, a3 = linearize(EL, TAN_BASE, t)
        assert abs(a1 + 16.0 * T) <= 1e-10
        assert abs(a2 - (8.0 - 12.0 * T * T)) <= 1e-10
        assert abs(a3 - 8.0 * T) <= 1e-10


def test_linearize_along_trajectory():
    traj = integrate(Jet4(0, 1, 1, 1, 1), 1.0, 1e-11)  # e^t jet
    a1, a2, a3 = linearize(EL, traj, 0.5)
    assert abs(a1 - 2.0) <= 1e-8
    assert abs(a2 + 5.0) <= 1e-8
    assert abs(a3 - 4.0) <= 1e-8


def test_basis_residuals():
    ts = np.linspace(0.0, 1.0, 20)
    poly = LinearizedOde(EL, LINE_BASE)
    assert verify_linear_basis(poly, POLY_BASIS, ts) == 0.0
    expo = LinearizedOde(EL, EXP_BASE)
    assert verify_linear_basis(expo, EXP_BASIS, ts) <= 1e-9
    tang = LinearizedOde(EL, TAN_BASE)
    assert verify_linear_basis(tang, TAN_BASIS, ts) <= 1e-8


def test_general_field_engine():
    # u'''' = u has v'''' = v as its own linearization; cos/sin/exp solve it
    field = OdeField.from_expression("u")
    assert eval_scalar(field.Fp, Jet4(0, 0, 1, 0, 0)) == 0.0
    lin = LinearizedOde(field, LINE_BASE)
    resid = verify_linear_basis(lin, ["t^3", "t^2", "t", "1"], [0.0, 0.5])
    assert resid == 0.0  # cubic polynomials are annihilated by v'''' and the rhs is 0 on them

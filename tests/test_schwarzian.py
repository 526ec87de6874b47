"""Pointwise jet operations and their structural identities."""

import numpy as np
import pytest

from conftest import mobius_of_jet, random_jet
from schwarzlab.closed_form import MobiusFamily, family_eval_jet
from schwarzlab.errors import SingularJetError
from schwarzlab.schwarzian import (
    EL_FIELD_TEXT,
    MERCATOR_TEXT,
    SCHWARZIAN_TEXT,
    Jet4,
    VarJet,
    boundary_B,
    boundary_terms,
    d_u,
    d_u2,
    el_rhs,
    lagrangian,
    mercator_c,
    schwarzian,
)
from schwarzlab.symbolics import formal_solution, parse, taylor_eval

TAN_JET = Jet4(0, 0, 1, 0, 2)
EXP_JET = Jet4(0, 1, 1, 1, 1)  # e^t at 0
EXP2_JET = Jet4(0, 1, 2, 4, 8)  # e^{2t} at 0
LINE_JET = Jet4(0, 0, 1, 0, 0)


# ---------------------------------------------------------------------------
# operation examples
# ---------------------------------------------------------------------------

def test_schwarzian_values():
    assert schwarzian(TAN_JET) == 2.0
    mob = family_eval_jet(MobiusFamily(2, 1, 1, 3, 0.0), 1.0)
    assert abs(schwarzian(mob)) < 1e-14
    assert schwarzian(EXP2_JET) == -2.0


def test_mercator_values():
    assert mercator_c(LINE_JET) == 0.0
    assert mercator_c(TAN_JET) == 2.0
    assert mercator_c(EXP_JET) == 0.0


def test_lagrangian_values():
    assert lagrangian(Jet4(0, 0, 2, 4, 0)) == 4.0
    assert lagrangian(family_eval_jet(MobiusFamily(3, 5, 0, 1, 0.0), 0.7)) == 0.0
    assert lagrangian(EXP2_JET) == 4.0


def test_el_rhs_values():
    assert el_rhs(Jet4(0, 0, 1, 0, 5)) == 0.0
    assert el_rhs(Jet4(0, 0, 1, 1, 1)) == 1.0
    # e^t solves the equation: u'''' at 0 is 1
    assert el_rhs(EXP_JET) == 1.0


def test_d_u_values():
    w = VarJet(3.0, 5.0, 7.0)
    assert d_u(LINE_JET, w) == w.v1
    assert d_u(EXP_JET, VarJet(1.0, 1.0, 0.0)) == 0.0  # v = u' is in the kernel
    assert d_u(Jet4(0, 0, 2, 4, 0), VarJet(1.0, 0.0, 0.0)) == -2.0


def test_d_u2_values():
    t = 0.3
    assert d_u2(Jet4(t, t, 1, 0, 0), VarJet(t * t, 2 * t, 2.0)) == 2.0
    assert d_u2(EXP_JET, VarJet(1.0, 1.0, 1.0)) == 0.0
    assert d_u2(Jet4(0, 0, 1, 0, 0), VarJet(0.0, 0.0, 5.0)) == 5.0


def test_boundary_B_values():
    assert boundary_B(Jet4(0.4, 0.4, 1, 0, 0), VarJet(0.16, 0.8, 2.0)) == 2.0
    assert boundary_B(EXP_JET, VarJet(1.0, 1.0, 1.0)) == -0.5
    rng = np.random.default_rng(0)
    j = random_jet(rng)
    assert boundary_B(j, VarJet(0.0, 0.0, 0.0)) == 0.0


def test_boundary_terms_values():
    rng = np.random.default_rng(1)
    j = random_jet(rng)
    b0, b1, b2 = boundary_terms(j, VarJet(0.0, 0.7, 0.3))
    assert b0 == b1 == b2 == 2.0 * j.q * 0.7 / j.p ** 2
    assert boundary_terms(EXP_JET, VarJet(1.0, 1.0, 0.0)) == (2.0, 1.0, 2.0)
    assert boundary_terms(Jet4(0, 0, 1, 0, 0), VarJet(0.4, 0.9, 0.1)) == (0.0, 0.0, 0.0)


def test_singular_jet_rejected():
    for op in (schwarzian, mercator_c, lagrangian, el_rhs):
        with pytest.raises(SingularJetError):
            op(Jet4(0, 0, 0, 1, 1))
    with pytest.raises(SingularJetError):
        d_u(Jet4(0, 0, 1e-13, 1, 1), VarJet(1, 1, 1))


JET_OPS = {
    "schwarzian": lambda j, w: schwarzian(j),
    "mercator_c": lambda j, w: mercator_c(j),
    "lagrangian": lambda j, w: lagrangian(j),
    "el_rhs": lambda j, w: el_rhs(j),
    "d_u": d_u,
    "d_u2": d_u2,
    "boundary_B": boundary_B,
    "boundary_terms": boundary_terms,
}


def random_jet_arrays(rng, n):
    """A Jet4 and a VarJet of n random nodes, with |p| log-uniform over
    1e-6..1e6 and the other fields over several decades of both signs."""
    def spread(lo, hi):
        return rng.choice([-1.0, 1.0], size=n) * np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))

    j = Jet4(rng.uniform(-1, 1, size=n), spread(1e-3, 1e3), spread(1e-6, 1e6), spread(1e-3, 1e3), spread(1e-3, 1e3))
    return j, VarJet(spread(1e-3, 1e3), spread(1e-3, 1e3), spread(1e-3, 1e3))


@pytest.mark.parametrize("name", JET_OPS)
def test_jet_of_arrays_equals_the_float_jets(name):
    # the same + - * / on every node, so not a last bit may differ; 20000
    # nodes, as float pow(x, 2) differs from x*x on about 1 input in 1300
    op = JET_OPS[name]
    j, w = random_jet_arrays(np.random.default_rng(40), 20000)
    nodes = zip(zip(*(x.tolist() for x in j.as_tuple())), zip(w.v.tolist(), w.v1.tolist(), w.v2.tolist()))
    floats = np.array([op(Jet4(*jk), VarJet(*wk)) for jk, wk in nodes])
    assert np.array_equal(np.asarray(op(j, w)), floats.T)


@pytest.mark.parametrize("name", JET_OPS)
def test_jet_of_arrays_names_its_first_singular_node(name):
    j, w = random_jet_arrays(np.random.default_rng(41), 50)
    p = j.p.copy()
    p[[17, 30]] = (0.0, 1e-13)
    with pytest.raises(SingularJetError, match=rf"\|u'\| = 0\.000e\+00 below singularity floor at t = {j.t[17]}$"):
        JET_OPS[name](Jet4(j.t, j.u, p, j.q, j.r), w)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_mobius_annihilation():
    rng = np.random.default_rng(5)
    count = 0
    while count < 100:
        a, b, c, d = rng.uniform(-2, 2, size=4)
        if abs(a * d - b * c) < 0.1:
            continue
        fam = MobiusFamily(float(a), float(b), float(c), float(d), 0.0)
        t = float(rng.uniform(-2, 2))
        if c != 0 and abs(c * t + d) < 0.2:
            continue
        jet = family_eval_jet(fam, t)
        if abs(jet.p) < 1e-6:
            continue
        assert abs(schwarzian(jet)) <= 1e-9
        count += 1


def test_mobius_cocycle():
    """Post-composition with a Moebius map leaves the Schwarzian unchanged at
    matching jets."""
    rng = np.random.default_rng(6)
    count = 0
    while count < 100:
        j = random_jet(rng, 0.2, 5.0)
        a, b, c, d = rng.uniform(-2, 2, size=4)
        if abs(a * d - b * c) < 0.1 or abs(c * j.u + d) < 0.2:
            continue
        composed = mobius_of_jet(j, float(a), float(b), float(c), float(d))
        if abs(composed.p) < 1e-6:
            continue
        s1, s2 = schwarzian(j), schwarzian(composed)
        assert abs(s1 - s2) <= 1e-9 * max(1.0, abs(s1))
        count += 1


def test_first_integrals_along_formal_flow():
    """Coefficient 1 of S and C composed with the formal solution vanishes:
    both are conserved along the flow."""
    s_expr = parse(SCHWARZIAN_TEXT)
    c_expr = parse(MERCATOR_TEXT)
    field = parse(EL_FIELD_TEXT)
    rng = np.random.default_rng(9)
    for _ in range(100):
        j = random_jet(rng, 0.1, 2.0)
        env = formal_solution(field, j, 8)
        s_series = taylor_eval(s_expr, env)
        c_series = taylor_eval(c_expr, env)
        assert abs(s_series.coeffs[1]) <= 1e-11
        assert abs(c_series.coeffs[1]) <= 1e-11


def test_boundary_B_two_forms_agree():
    rng = np.random.default_rng(10)
    for _ in range(100):
        j = random_jet(rng, 0.2, 5.0)
        w = VarJet(*(float(x) for x in rng.uniform(-2, 2, size=3)))
        lhs = boundary_B(j, w)
        rhs = w.v2 / j.p - 2.0 * j.q * w.v1 / j.p ** 2 + j.q ** 2 * w.v / (2.0 * j.p ** 3)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_linearity_in_variation():
    rng = np.random.default_rng(12)
    ops = [
        d_u,
        d_u2,
        boundary_B,
        lambda j, w: boundary_terms(j, w)[0],
        lambda j, w: boundary_terms(j, w)[1],
        lambda j, w: boundary_terms(j, w)[2],
    ]
    for _ in range(25):
        j = random_jet(rng, 0.2, 5.0)
        w1 = VarJet(*(float(x) for x in rng.uniform(-1, 1, size=3)))
        w2 = VarJet(*(float(x) for x in rng.uniform(-1, 1, size=3)))
        alpha, beta = (float(x) for x in rng.uniform(-2, 2, size=2))
        combo = VarJet(
            alpha * w1.v + beta * w2.v,
            alpha * w1.v1 + beta * w2.v1,
            alpha * w1.v2 + beta * w2.v2,
        )
        for op in ops:
            lhs = op(j, combo)
            rhs = alpha * op(j, w1) + beta * op(j, w2)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_field_text_matches_pointwise_function():
    field = parse(EL_FIELD_TEXT)
    rng = np.random.default_rng(13)
    from schwarzlab.symbolics import eval_scalar

    for _ in range(30):
        j = random_jet(rng, 0.2, 5.0)
        assert abs(eval_scalar(field, j) - el_rhs(j)) <= 1e-12 * max(1.0, abs(el_rhs(j)))

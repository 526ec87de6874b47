"""Closed-form solution families: jets, singular times, residual checks, and
agreement with the numerical integrator."""

import json
import math
import re

import numpy as np
import pytest

from conftest import (
    exact_derivatives,
    exact_jet,
    max_rel_error,
    nonsingular_window,
    random_family,
    random_jet,
)
from schwarzlab.closed_form import (
    MAX_SOLUTIONS,
    POLE_EPS,
    MobiusFamily,
    family_eval_jet,
    family_fourth,
    family_of_jet,
    family_poles,
    family_singularities,
    family_verify,
    generator_solve,
)
from schwarzlab.el_ode import integrate
from schwarzlab.errors import SingularTimeError
from schwarzlab.schwarzian import Jet4, schwarzian
from schwarzlab.symbolics import EXP_ARG_MAX
from schwarzlab.variation import MobiusCurve


def test_family_class_by_sign():
    assert MobiusFamily(1, 0, 0, 1, -1.0).family_class == "hyperbolic"
    assert MobiusFamily(1, 0, 0, 1, 0.0).family_class == "parabolic"
    assert MobiusFamily(1, 0, 0, 1, 1.0).family_class == "elliptic"


def test_degenerate_family_rejected():
    with pytest.raises(ValueError):
        MobiusFamily(1, 2, 2, 4, 0.0)


@pytest.mark.parametrize("text, message", [
    ('{"A":1,"B":0,"C":0,"D":1}', "no key 'sigma'"),
    ('{"A":1,"B":0,"C":0,"D":"1","sigma":0}', "key 'D' is not a number"),
    ('{"A":1,"B":null,"C":0,"D":1,"sigma":0}', "key 'B' is not a number"),
    ('[1, 0, 0, 1, 0]', "must be an object"),
    ('{"A":1,"B":0,"C":0,"D":1,"sigma":NaN}', "must be finite"),
    ('{"A":1,"B":0,"C":0,"D":1%s,"sigma":0}' % ("0" * 400), "must be finite"),
    ('{"A":1,"B":0,"C":true,"D":1,"sigma":0}', "key 'C' is not a number"),
])
def test_family_from_json_names_the_bad_key(text, message):
    with pytest.raises(ValueError, match=message):
        MobiusFamily.from_json(text)


def test_identity_family_jet():
    jet = family_eval_jet(MobiusFamily(1, 0, 0, 1, 0.0), 3.0)
    assert jet.as_tuple() == (3.0, 3.0, 1.0, 0.0, 0.0)


def test_elliptic_family_jet_is_tan():
    jet = family_eval_jet(MobiusFamily(1, 0, 0, 1, 2.0), 0.0)
    assert jet.as_tuple() == (0.0, 0.0, 1.0, 0.0, 2.0)
    assert schwarzian(jet) == 2.0


def test_hyperbolic_family_jet_is_exp():
    jet = family_eval_jet(MobiusFamily(1, 0, 0, 1, -2.0), 0.0)
    assert np.allclose(jet.as_tuple(), (0.0, 1.0, 2.0, 4.0, 8.0), rtol=0, atol=1e-14)
    assert abs(schwarzian(jet) + 2.0) < 1e-14


def test_singularities_parabolic_pole():
    assert family_singularities(MobiusFamily(1, 0, 1, -1, 0.0), 0.0, 2.0) == pytest.approx([1.0], abs=1e-12)


def test_singularities_tan_pole():
    out = family_singularities(MobiusFamily(1, 0, 0, 1, 2.0), 0.0, 3.0)
    assert len(out) == 1
    assert abs(out[0] - math.pi / 2.0) <= 1e-12


def test_singularities_entire_exponential():
    assert family_singularities(MobiusFamily(1, 0, 0, 1, -2.0), 0.0, 10.0) == []


def test_singularities_exp_denominator_zero():
    # denominator e^{at} - 2 vanishes at t = ln(2)/a
    fam = MobiusFamily(1.0, 0.0, 1.0, -2.0, -0.5)
    out = family_singularities(fam, 0.0, 3.0)
    assert len(out) == 1
    assert abs(out[0] - math.log(2.0)) <= 1e-12


@pytest.mark.parametrize("ratio", [1e16, 1e12, 1e-12, 1e-16])
def test_steep_hyperbolic_poles_far_from_t0(ratio):
    # e^{20 t} = -D/C with |D/C| far from 1: the pole is ln(-D/C)/20 to
    # rounding, also where tanh(10 t) has rounded to +-1
    fam = MobiusFamily(1.0, 0.0, 1.0, -ratio, -200.0)
    want = math.log(ratio) / 20.0
    assert family_poles(fam, -3.0, 3.0) == pytest.approx([want], rel=0, abs=1e-13)
    assert family_singularities(fam, -3.0, 3.0) == pytest.approx([want], rel=0, abs=1e-13)
    with pytest.raises(SingularTimeError):
        MobiusCurve(fam, (min(0.0, want) - 0.5, max(0.0, want) + 0.5))


def test_singularities_elliptic_denominator_zeros():
    # u = tan(t)/(tan(t) - 1): zeros of the denominator at t = pi/4 + k pi,
    # plus the tan pole at pi/2
    fam = MobiusFamily(1.0, 0.0, 1.0, -1.0, 2.0)
    out = family_singularities(fam, 0.0, 3.2)
    expected = [math.pi / 4.0, math.pi / 2.0]
    assert len(out) == 2
    assert np.allclose(out, expected, rtol=0, atol=1e-12)
    # the tan pole is removable for u (u -> A/C = 1 there): not a pole of u
    assert family_poles(fam, 0.0, 3.2) == pytest.approx([math.pi / 4.0], abs=1e-12)


def test_eval_at_singular_time_raises():
    with pytest.raises(SingularTimeError):
        family_eval_jet(MobiusFamily(1, 0, 1, -1, 0.0), 1.0)
    with pytest.raises(SingularTimeError):
        family_eval_jet(MobiusFamily(1, 0, 0, 1, 2.0), math.pi / 2.0)


def test_pole_window_is_a_time_window():
    # POLE_EPS bounds the distance in t to the pole, whatever the scale of u
    fam = MobiusFamily(0, 1, 1, -1, 0.0)  # u = 1/(t - 1)
    with pytest.raises(SingularTimeError):
        family_eval_jet(fam, 1.0 + 0.5 * POLE_EPS)
    assert family_eval_jet(fam, 1.0 + 2.0 * POLE_EPS).p == pytest.approx(-1.0 / (2.0 * POLE_EPS) ** 2)
    # u = e^{2t} has no pole: far out its recentred denominator is e^{-25}
    jet = family_eval_jet(MobiusFamily(1, 0, 0, 1, -2.0), 25.0)
    want = np.exp(50.0) * np.array([1.0, 2.0, 4.0, 8.0])
    assert np.allclose(jet.as_tuple()[1:], want, rtol=1e-13, atol=0)


def test_verify_examples():
    parabolic = family_verify(MobiusFamily(2, 1, 1, 3, 0.0), 100, 0.0, 1.0)
    assert parabolic.max_schwarzian_residual <= 1e-10
    assert parabolic.max_ode_residual <= 1e-10
    tan = family_verify(MobiusFamily(1, 0, 0, 1, 2.0), 100, 0.0, 1.0)
    assert tan.max_schwarzian_residual <= 1e-9
    assert tan.max_ode_residual <= 1e-9
    hyp = family_verify(MobiusFamily(2, 1, 1, 3, -0.5), 100, 0.0, 1.0)
    assert hyp.max_schwarzian_residual <= 1e-9
    assert hyp.max_ode_residual <= 1e-9


def test_verify_random_families_all_classes():
    rng = np.random.default_rng(21)
    for cls in ("hyperbolic", "parabolic", "elliptic"):
        done = 0
        while done < 15:
            fam = random_family(rng, cls)
            window = nonsingular_window(fam)
            if window is None:
                continue
            report = family_verify(fam, 50, *window)
            assert report.max_schwarzian_residual <= 1e-9, fam
            assert report.max_ode_residual <= 1e-9, fam
            done += 1


def test_schwarzian_independent_of_mobius_parameters():
    rng = np.random.default_rng(22)
    for sigma in (-1.7, 0.0, 0.9):
        t = 0.31
        values = []
        count = 0
        while count < 12:
            fam = random_family(rng, "parabolic")
            fam = MobiusFamily(fam.A, fam.B, fam.C, fam.D, sigma)
            try:
                jet = family_eval_jet(fam, t)
            except SingularTimeError:
                continue
            if abs(jet.p) < 1e-6:
                continue
            values.append(schwarzian(jet))
            count += 1
        assert max(abs(v - sigma) for v in values) <= 1e-10


def test_integrator_agreement_with_closed_form():
    rng = np.random.default_rng(23)
    tol = 1e-10
    for cls in ("hyperbolic", "parabolic", "elliptic"):
        done = 0
        while done < 5:
            fam = random_family(rng, cls)
            window = nonsingular_window(fam, min_len=0.6)
            if window is None:
                continue
            t0 = window[0]
            t1 = min(window[1], t0 + 1.0)
            start = family_eval_jet(fam, t0)
            if abs(start.p) < 1e-3:
                continue
            traj = integrate(start, t1, tol)
            if traj.status != "completed":
                continue
            oracle = family_eval_jet(fam, t1)
            got = traj.final
            for name in ("u", "p", "q", "r"):
                err = abs(getattr(got, name) - getattr(oracle, name))
                assert err <= 10.0 * tol * max(1.0, abs(getattr(oracle, name))), (fam, name)
            done += 1


def _assert_matches_oracle(fam, t):
    want = exact_derivatives(fam, t)
    assert max_rel_error(family_eval_jet(fam, t), Jet4(t, *want[:4])) <= 1e-12, (fam, t)
    assert abs(family_fourth(fam, t) - want[4]) <= 1e-12 * max(1.0, abs(want[4])), (fam, t)


def test_jets_and_fourth_derivative_match_mpmath_oracle():
    rng = np.random.default_rng(26)
    for cls in ("hyperbolic", "parabolic", "elliptic"):
        done = 0
        while done < 20:
            fam = random_family(rng, cls)
            window = nonsingular_window(fam)
            if window is None:
                continue
            for t in rng.uniform(*window, size=3):
                _assert_matches_oracle(fam, float(t))
            done += 1
    # next to a removable pole of tan(w t), where u stays finite
    done = 0
    while done < 40:
        fam = random_family(rng, "elliptic")
        w = math.sqrt(fam.sigma / 2.0)
        offset = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9, -2))
        t = (math.pi / 2.0 + math.pi * int(rng.integers(-1, 2))) / w + offset
        if fam.C == 0.0 or family_poles(fam, t - 0.2, t + 0.2):
            continue
        _assert_matches_oracle(fam, t)
        done += 1


def test_json_round_trip():
    fam = MobiusFamily(2.0, 1.0, 1.0, 3.0, -0.5)
    again = MobiusFamily.from_json(fam.to_json())
    assert again == fam
    payload = json.loads(fam.to_json())
    assert set(payload) == {"A", "B", "C", "D", "sigma"}


def _parabolic(jet):
    """The jet with p rounded to a power of two and r = 1.5 (q/p)^2 p, so
    that S(jet) = r/p - 1.5 (q/p)^2 is exactly 0 in floating point."""
    p = math.copysign(2.0 ** round(math.log2(abs(jet.p))), jet.p)
    return Jet4(jet.t, jet.u, p, jet.q, 1.5 * (jet.q / p) ** 2 * p)


def test_family_of_jet_round_trip():
    rng = np.random.default_rng(24)
    seen = {"hyperbolic": 0, "parabolic": 0, "elliptic": 0}
    for i in range(900):
        jet = random_jet(rng)
        if i % 3 == 0:
            jet = _parabolic(jet)
        fam = family_of_jet(jet)
        assert fam.sigma == schwarzian(jet)
        assert abs(fam.determinant) > 0.0
        assert max_rel_error(exact_jet(fam, jet.t), jet) <= 1e-10, jet
        seen[fam.family_class] += 1
    assert min(seen.values()) >= 100, seen


def test_family_eval_jet_near_a_removable_tan_pole():
    # sigma = 7.10 and tan(w t) ~ 30: the unshifted composite lost 5e-11 in r
    jet = Jet4(0.8155, 0.5626, -0.1175, -0.0999, -0.9622)
    assert max_rel_error(family_eval_jet(family_of_jet(jet), jet.t), jet) <= 1e-13


def test_family_of_jet_reproduces_poles():
    rng = np.random.default_rng(25)
    for cls in ("hyperbolic", "parabolic", "elliptic"):
        done = 0
        while done < 20:
            fam = random_family(rng, cls)
            window = nonsingular_window(fam)
            if window is None:
                continue
            t = float(rng.uniform(*window))
            lo, hi = t - 3.0, t + 3.0
            want = family_poles(fam, lo, hi)
            if any(min(abs(x - lo), abs(x - hi)) < 1e-6 for x in want):
                continue
            got = family_poles(family_of_jet(family_eval_jet(fam, t)), lo, hi)
            assert len(got) == len(want), (fam, t, got, want)
            assert np.allclose(got, want, rtol=0, atol=1e-8), (fam, t, got, want)
            done += 1


@pytest.mark.parametrize("t0", [100.0, -100.0])
def test_family_of_jet_outside_the_float_range(t0):
    # sigma = -200, k = 10: e^{+-k t0} = e^{+-1000} overflows
    with pytest.raises(ValueError, match="outside the float range"):
        family_of_jet(Jet4(t0, 0.0, 1.0, 0.0, -200.0))


def test_hyperbolic_shift_at_EXP_ARG_MAX_is_finite_and_refused_past_it():
    # sigma = -2, k = 1: k t is t itself, so e^{k t} is finite at EXP_ARG_MAX
    past = math.nextafter(EXP_ARG_MAX, math.inf)
    fam = MobiusFamily(0.0, 1.0, 1.0, 0.0, -2.0)
    for t in (EXP_ARG_MAX, np.array([0.0, EXP_ARG_MAX])):
        assert np.isfinite(family_eval_jet(fam, t).as_tuple()[1:]).all()
    assert math.isfinite(family_of_jet(Jet4(EXP_ARG_MAX, 0.0, 1.0, 0.0, -2.0)).determinant)
    message = f"e^(+-k t) is outside the float range at |k t| = {past:g}"
    for t in (past, -past, np.array([0.0, past])):
        with pytest.raises(ValueError, match=re.escape(message)):
            family_eval_jet(fam, t)
    with pytest.raises(ValueError, match=re.escape(message)):
        family_of_jet(Jet4(past, 0.0, 1.0, 0.0, -2.0))


def test_window_of_too_many_solutions_is_refused():
    # the poles of tan(s) are pi/2 + k pi: [0, n pi] holds n of them
    assert len(generator_solve(2.0, 1.0, 0.0, 0.0, MAX_SOLUTIONS * math.pi)) == MAX_SOLUTIONS
    with pytest.raises(ValueError, match=f"holds {MAX_SOLUTIONS + 1} solutions"):
        generator_solve(2.0, 1.0, 0.0, 0.0, (MAX_SOLUTIONS + 1) * math.pi)

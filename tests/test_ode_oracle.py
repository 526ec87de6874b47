"""An oracle for integrate that shares no code with it: mpmath's own Taylor
integrator (mpmath.odefun) on (u, p, q, r)' = (p, q, r, -3q^3/p^2 + 4qr/p)
at 30 digits, from two jets of each sign of S over spans of about 1.  S is
constant along the 30-digit solution, integrate's endpoint lies within
10*tol of it, and the exact family through the jet agrees with it to about
1e-14."""

import numpy as np
import pytest

from schwarzlab.closed_form import family_eval_jet, family_of_jet, family_singularities
from schwarzlab.el_ode import STATUS_COMPLETED, integrate
from schwarzlab.schwarzian import Jet4, schwarzian

mpmath = pytest.importorskip("mpmath")


def oracle_jets():
    """(jet, t_end): two jets of each class, S < 0, S = 0 and S > 0, with no
    pole of their exact solution within 0.2 of the span.  The S = 0 jets
    are exactly parabolic, r = (3/2) q^2/p in dyadic numbers, not item 4's
    near-parabolic jets of rounding-level S."""
    rng = np.random.default_rng(41)
    out = [(Jet4(0.0, 0.5, 1.0, 0.5, 0.375), 1.0), (Jet4(0.25, -1.0, -2.0, 1.0, -0.75), -0.75)]
    for sign in (-1.0, 1.0):
        done = 0
        while done < 2:
            t0, u, q = (float(x) for x in rng.uniform(-1.0, 1.0, 3))
            p = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            sigma = sign * float(rng.uniform(0.3, 3.0))
            jet = Jet4(t0, u, p, q, p * (sigma + 1.5 * (q / p) ** 2))
            t_end = t0 + float(rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.2))
            if family_singularities(family_of_jet(jet), min(t0, t_end) - 0.2, max(t0, t_end) + 0.2):
                continue
            out.append((jet, t_end))
            done += 1
    return [pytest.param(jet, t_end, id=f"S={schwarzian(jet):.3g} {'forward' if t_end > jet.t else 'backward'}")
            for jet, t_end in out]


def mp_solution(jet, ts):
    """(u, p, q, r) of the 30-digit solution through jet at each of ts, as
    mpmath numbers.  odefun runs forward only, so a backward run solves the
    same equation for v(s) = u(-s), whose jet is (u, -p, q, -r): F is odd in
    p and r together, so v satisfies the equation of u."""
    d = 1 if ts[-1] >= jet.t else -1
    with mpmath.workdps(30):
        f = mpmath.odefun(lambda x, y: [y[1], y[2], y[3], -3 * y[2] ** 3 / y[1] ** 2 + 4 * y[2] * y[3] / y[1]],
                          d * mpmath.mpf(jet.t), [mpmath.mpf(x) * d ** k for k, x in enumerate(jet.as_tuple()[1:])])
        return [[y * d ** k for k, y in enumerate(f(d * mpmath.mpf(t)))] for t in ts]


def rel_error(got: Jet4, want) -> float:
    """max over u, p, q, r of |got - want| / max(1, |want|)."""
    return max(float(abs(g - w) / max(1, abs(w))) for g, w in zip(got.as_tuple()[1:], want))


@pytest.mark.parametrize("jet, t_end", oracle_jets())
def test_integrate_and_the_family_map_match_mpmath(jet, t_end):
    ts = [jet.t + (t_end - jet.t) * k / 4 for k in range(1, 5)]
    sols = mp_solution(jet, ts)
    with mpmath.workdps(30):
        s0 = mpmath.mpf(jet.r) / jet.p - 1.5 * (mpmath.mpf(jet.q) / jet.p) ** 2
        for u, p, q, r in sols:
            assert abs(r / p - 1.5 * (q / p) ** 2 - s0) <= 1e-20 * max(1, abs(s0))
    want = sols[-1]
    for tol in (1e-12, 1e-8):
        traj = integrate(jet, t_end, tol)
        assert traj.status == STATUS_COMPLETED and traj.t_final == t_end
        assert rel_error(traj.final, want) <= 10 * tol, (tol, rel_error(traj.final, want))
    assert rel_error(family_eval_jet(family_of_jet(jet), t_end), want) <= 1e-14

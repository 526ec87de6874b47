"""Adaptive integration of the fourth-order stationarity equation as a
first-order system on jets, with scipy's DOP853 (the Dormand-Prince 8(5,3)
pair) and continuous monitoring of the two first integrals.  The samples
are the accepted steps; the dense output that interpolates between them is
built only when a caller reads it (Trajectory.jet_at).

Integration stops gracefully (status "stopped-near-singularity") for one of
two reasons: a pole of u lies ahead, known in closed form from the exact
solution through the initial jet, u + p G(s)/(1 - c G(s)) with c = q/(2p)
(closed_form.generator_solve), as |u'| grows without bound there and no
event on the state sees it coming; or |p| decays below SINGULARITY_FLOOR,
where the right-hand side blows up although u stays finite (u = e^t /
(e^t + 1) as t grows).  A terminal event watches that floor, but only on the
runs that need it: those where the exact solution reaches the floor before
the run ends (_floor_times), and the rare rest that, solved without it, fail,
meet a floating-point error or leave a sample on the floor, which are solved
again with the event.  The event only tests the sign of |p| -
SINGULARITY_FLOOR at each step's end and never changes the steps, so every
run gives what a run that always watches would give, warnings included.

scipy is imported by the first solve, not with this module: the rest of the
package (Taylor programs, Moebius families, Chebyshev panels) never needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .closed_form import generator_solve
from .errors import IntegrationError, SingularJetError
from .schwarzian import Jet4, mercator_c, schwarzian
from .symbolics import first_where

SINGULARITY_FLOOR = 1e-8
# distance in t at which a run stops before a pole of u
POLE_MARGIN = 0.05
TOL_MIN, TOL_MAX = 1e-13, 1e-3

STATUS_COMPLETED = "completed"
STATUS_STOPPED = "stopped-near-singularity"

CSV_HEADER = "t,u,p,q,r,S,C"


@dataclass(frozen=True)
class Trajectory:
    """A sampled numerical solution: every accepted step of the integrator,
    ascending in t, with per-sample first-integral values.  A run of zero
    length has one sample.  solve_dense reruns the solve that made the
    samples with dense output on; dense calls it on first read and keeps
    the interpolant, whose steps are the samples."""

    samples: tuple
    s_values: tuple
    c_values: tuple
    tolerance: float
    status: str
    solve_dense: object = field(repr=False, compare=False, default=None)
    t_start: float = 0.0
    t_final: float = 0.0

    @property
    def final(self) -> Jet4:
        """The jet at the integration endpoint (t_final), which is
        samples[0] for backward runs."""
        return self.samples[-1] if self.t_final >= self.t_start else self.samples[0]

    @cached_property
    def dense(self):
        """The dense-output interpolant (a scipy OdeSolution)."""
        return self.solve_dense()

    def jet_at(self, t) -> Jet4:
        """Dense-output jet at any t inside the integration span: a jet of
        floats at a float t, and at a 1-D array t a jet of arrays over it,
        read in one call, whose entry k equals jet_at(t[k])."""
        lo, hi = min(self.t_start, self.t_final), max(self.t_start, self.t_final)
        outside = first_where(np.logical_not((lo <= t) & (t <= hi)), t)
        if outside is not None:
            raise ValueError(f"t = {outside} outside integration span [{lo}, {hi}]")
        y = self.dense(t)
        return Jet4(t, *(y if isinstance(t, np.ndarray) else map(float, y)))


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def _rhs(t, y):
    p, q, r = y[1], y[2], y[3]
    return (p, q, r, -3.0 * q ** 3 / p ** 2 + 4.0 * q * r / p)


def _p_floor(t, y):
    return abs(y[1]) - SINGULARITY_FLOOR


_p_floor.terminal = True


def _floor_times(sigma: float, p: float, c: float, lo: float, hi: float) -> list:
    """The s in [lo, hi] where |u'| = SINGULARITY_FLOOR on the exact solution
    u + p G(s)/(1 - c G(s)) through a jet with S = sigma, ascending.  Its
    slope p G'/(1 - c G)^2, with G' = 1 + (sigma/2) G^2, meets the floor on a
    quadratic in G.  For sigma < 0 the quadratic is taken in z = e^(-2ks)
    instead, where the slope is 4 p k^2 z/((k - c) + (k + c) z)^2: G =
    tanh(ks)/k nears 1/k as the slope decays, and keeps few digits of s.
    Where k^2 = -sigma/2 underflows to 0 the quadratic in G is taken, as for
    sigma = 0."""
    f, ap = SINGULARITY_FLOOR, abs(p)
    k2 = -sigma / 2.0
    if k2 > 0:
        k = math.sqrt(k2)
        # f ((k - c) + (k + c) z)^2 = 4 |p| k^2 z
        a, b, c0 = f * (k + c) * (k + c), f * (k2 - c * c) - 2.0 * ap * k2, f * (k - c) * (k - c)
        disc = 4.0 * ap * k2 * (ap * k2 - f * (k2 - c * c))
    else:
        # f (1 - c G)^2 = |p| (1 + (sigma/2) G^2)
        a, b, c0 = ap * sigma / 2.0 - f * c * c, f * c, ap - f
        disc = ap * (f * c * c - sigma / 2.0 * (ap - f))
    # the roots of a x^2 + 2 b x + c0, disc = b^2 - a c0, without cancellation
    if not disc >= 0.0:
        return []
    h = -(b + math.copysign(math.sqrt(disc), b))
    roots = [x for x in ((h / a) if a else math.nan, (c0 / h) if h else math.nan) if math.isfinite(x)]
    if k2 > 0:
        return sorted(s for z in roots for s in generator_solve(sigma, 1.0, z, lo, hi, public=True))
    return sorted(s for g in roots for s in generator_solve(sigma, g, 1.0, lo, hi))


def integrate(init: Jet4, t_end: float, tol: float) -> Trajectory:
    """Solve (u, p, q, r)' = (p, q, r, F) from init.t to t_end with DOP853,
    local error control at tol.  Works in either time direction.  Stops
    POLE_MARGIN before the first pole of u on the way (or halfway to a pole
    nearer than twice that), or where |p| falls below SINGULARITY_FLOOR: the
    floor event is attached where the exact solution through init reaches
    the floor before the run ends, and otherwise only to a rerun of a run
    that failed, met a floating-point overflow, division by zero or invalid
    operation, or left a sample on or below the floor.
    A jet or t_end that is not finite, a span t_end - init.t that
    overflows, or a jet where F is not finite, on which no step can be
    taken, raises ValueError."""
    if not all(math.isfinite(x) for x in (*init.as_tuple(), t_end)):
        raise ValueError(f"need a finite jet and t_end, got {init.as_tuple()} and {t_end}")
    if not math.isfinite(t_end - init.t):
        raise ValueError(f"the run's span t_end - t = {t_end} - {init.t} is not finite")
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tolerance {tol} outside [{TOL_MIN}, {TOL_MAX}]")
    if abs(init.p) < SINGULARITY_FLOOR:
        raise SingularJetError(f"singular initial jet (p = {init.p})")
    # F as the solver computes it, on float64.  Where it is not finite no
    # step can be taken, and where it is NaN (inf - inf) the solver would
    # never return: a step size of NaN is neither accepted nor refused
    with np.errstate(all="ignore"):
        f0 = _rhs(init.t, np.array(init.as_tuple()[1:]))[3]
    if not math.isfinite(f0):
        raise ValueError(f"F = {f0} at the initial jet {init.as_tuple()}: no step can be taken")
    # internal safety factor so the accumulated endpoint error stays well
    # inside 10*tol relative to scale
    inner = tol / 40.0
    t_stop = t_end
    # the poles of the solution through init, at s = t - init.t; with S > 0
    # they repeat with period pi/w, so the nearest lies within one period, and
    # a window of two keeps rounding at its end from dropping that pole.  An
    # S whose half underflows to 0 has no period, as S = 0
    sigma, span = schwarzian(init), t_end - init.t
    if sigma / 2.0 > 0:
        span = math.copysign(min(abs(span), 2.0 * math.pi / math.sqrt(sigma / 2.0)), span)
    c = init.q / (2.0 * init.p)
    poles = generator_solve(sigma, 1.0, c, *sorted((0.0, span)))
    if poles:
        dist = min(abs(t) for t in poles)
        margin = min(POLE_MARGIN, 0.5 * dist)
        span = math.copysign(dist - margin, span)
        t_stop = init.t + span
        # near the pole the endpoint error grows like the phase error over
        # the margin, and the phase error like tol over the distance run
        inner *= margin / dist
    inner = max(inner, 3e-14)  # the float64 rtol floor

    def solve(events, dense_output):
        # dense output adds stages after each accepted step and leaves the
        # step selection alone, so both calls take the same steps
        return solve_ivp(_rhs, (init.t, t_stop), (init.u, init.p, init.q, init.r), method="DOP853",
                         rtol=inner, atol=inner, events=events, dense_output=dense_output)

    # the floor event where the exact solution meets the floor on the way;
    # for S > 0 its slope repeats with the poles, within the same window.
    # The event fires only at a step end where |p| <= SINGULARITY_FLOOR, or
    # at the step after one, so a run without it that did not fail and whose
    # samples all stay above the floor took the steps of the run with it,
    # and ended where that run ends.  Its floating-point errors raise, so it
    # shows no warning: a run that met one is solved again with the event,
    # and any warnings are that run's
    sol = None
    if not _floor_times(sigma, init.p, c, *sorted((0.0, span))):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                sol = solve(None, False)
        except FloatingPointError:
            pass
    events = None
    if sol is None or sol.status < 0 or np.abs(sol.y[1]).min() <= SINGULARITY_FLOOR:
        events = _p_floor
        sol = solve(events, False)
    if sol.status < 0:
        raise IntegrationError(f"integration failed at t = {sol.t[-1]:g}: {sol.message}")
    status = STATUS_STOPPED if sol.status == 1 or t_stop != t_end else STATUS_COMPLETED
    ts, ys = sol.t, sol.y
    if t_stop == init.t:  # the solver reports the start twice
        ts, ys = ts[:1], ys[:, :1]
    if ts[0] > ts[-1]:
        ts, ys = ts[::-1], ys[:, ::-1]
    samples = tuple(map(Jet4, ts.tolist(), *ys.tolist()))
    jets = Jet4(ts, *ys)
    return Trajectory(
        samples=samples,
        s_values=tuple(schwarzian(jets).tolist()),
        c_values=tuple(mercator_c(jets).tolist()),
        tolerance=tol,
        status=status,
        solve_dense=lambda: solve(events, True).sol,
        t_start=init.t,
        t_final=float(sol.t[-1]),
    )


def invariant_drift(traj: Trajectory) -> tuple:
    """(max |S - S0|, max |C - C0|) over the trajectory samples, with the
    reference values taken at the start of integration."""
    if not traj.samples:
        raise ValueError("empty trajectory")
    i0 = 0 if traj.t_final >= traj.t_start else len(traj.samples) - 1
    s0, c0 = traj.s_values[i0], traj.c_values[i0]
    ds = max(abs(s - s0) for s in traj.s_values)
    dc = max(abs(c - c0) for c in traj.c_values)
    return (ds, dc)


def trajectory_csv(traj: Trajectory) -> str:
    """CSV body: header t,u,p,q,r,S,C, one row per sample, 17 significant
    digits, LF line endings."""
    lines = [CSV_HEADER]
    for jet, s, c in zip(traj.samples, traj.s_values, traj.c_values):
        row = (jet.t, jet.u, jet.p, jet.q, jet.r, s, c)
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def write_csv(traj: Trajectory, path, header_comment: str = "") -> None:
    with open(path, "w", newline="\n") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(trajectory_csv(traj))

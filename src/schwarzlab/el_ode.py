"""Integration of the fourth-order stationarity equation u'''' = F(p, q, r)
by Taylor steps, with continuous monitoring of the two first integrals.
Each step expands the formal solution through the current jet with one
relaxed sweep of F's Taylor program (symbolics.flow_sweep), takes its size
from the last coefficients, and reads u, p, q and r at its end by Horner's
rule (Jorba & Zou, "A software package for the numerical integration of
ODEs by means of high-order Taylor methods", Experimental Mathematics 14,
2005).  The samples are the start and the step ends, and the dense output
between them is each step's own polynomials (Trajectory.jet_at).  F's
program is EL_FIELD_TEXT, F in S's own ratio a = q/p, a (4r - 3qa): a
coefficient costs one series quotient and two products, and no q^3 is
formed, so a jet whose q^3 would overflow is integrated where F is finite.

Integration stops gracefully (status "stopped-near-singularity") for one of
two reasons, both in closed form from the exact solution through the
initial jet, u + p G(s)/(1 - c G(s)) with c = q/(2p)
(closed_form.generator_solve): a pole of u lies ahead, as |u'| grows
without bound there; or |p| decays to SINGULARITY_FLOOR, where the
right-hand side blows up although u stays finite (u = e^t / (e^t + 1) as t
grows).  The run lands exactly on the first of these stops, or on t_end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_form import generator_solve
from .errors import IntegrationError, SingularJetError
from .schwarzian import EL_FIELD_TEXT, Jet4, el_rhs, mercator_c, schwarzian
from .symbolics import FLOW_INPUTS, TaylorProgram, first_where, flow_sweep, parse

SINGULARITY_FLOOR = 1e-8
# distance in t at which a run stops before a pole of u
POLE_MARGIN = 0.05
TOL_MIN, TOL_MAX = 1e-13, 1e-3

STATUS_COMPLETED = "completed"
STATUS_STOPPED = "stopped-near-singularity"

CSV_HEADER = "t,u,p,q,r,S,C"

# F compiled once, in the ratio q/p; el_field()'s F has its shape, so the
# two share their generated coefficient functions
_EL = TaylorProgram(parse(EL_FIELD_TEXT), FLOW_INPUTS)


def _horner(coeffs, h):
    """The polynomial with these coefficients, lowest first, at h: floats,
    or arrays over the same points."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * h + c
    return acc


@dataclass(frozen=True)
class Trajectory:
    """A sampled numerical solution: the start and every step's end, ascending
    in t, with per-sample first-integral values.  steps holds, in the run's
    direction, each step's start and end times and its coefficients of u,
    p, q and r in powers of t - start: the dense output.  A run of zero
    length has one sample, and one step of constants."""

    samples: tuple
    s_values: tuple
    c_values: tuple
    tolerance: float
    status: str
    steps: tuple = field(repr=False, compare=False, default=())
    t_start: float = 0.0
    t_final: float = 0.0

    @property
    def final(self) -> Jet4:
        """The jet at the integration endpoint (t_final), which is
        samples[0] for backward runs."""
        return self.samples[-1] if self.t_final >= self.t_start else self.samples[0]

    def jet_at(self, t) -> Jet4:
        """Dense-output jet at any t inside the integration span, from the
        polynomials of the first step that ends at or past t: a jet of floats
        at a float t, and at a 1-D array t a jet of arrays over it, read in
        one call, whose entry k equals jet_at(t[k]).  At a sample's t it is
        that sample."""
        lo, hi = min(self.t_start, self.t_final), max(self.t_start, self.t_final)
        outside = first_where(np.logical_not((lo <= t) & (t <= hi)), t)
        if outside is not None:
            raise ValueError(f"t = {outside} outside integration span [{lo}, {hi}]")
        x = np.atleast_1d(t)
        d = 1.0 if self.t_final >= self.t_start else -1.0
        starts, ends, polys = zip(*self.steps)
        i = np.searchsorted(d * np.array(ends), d * x)
        h = x - np.array(starts)[i]
        y = [_horner(np.array([c[n] for c in polys])[i].T, h) for n in range(4)]
        return Jet4(t, *(y if isinstance(t, np.ndarray) else (float(v[0]) for v in y)))


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


def _taylor_step(y: tuple, t: float, order: int, inner: float) -> tuple:
    """(polys, h): the polynomials of u, p, q and r, of degrees order + 3
    down to order, that the formal solution through the jet (t, *y) gives,
    with y as their constant terms, and the step size they allow.  h is the
    smaller of two bounds, each over the last two coefficients c_j: that of
    each series, (inner max(1, |y|)/|c_j|)^(1/j), keeps the truncation
    error within inner, and that of p's, e^-2 |p_0/p_j|^(1/j), keeps the
    step well inside the series' radius of convergence."""
    _, flow = flow_sweep(_EL, (t, *y), order + 3)
    polys = tuple([y0, *flow[n][1:]] for y0, n in zip(y, "upqr"))
    p, last = polys[1], lambda c: (len(c) - 2, len(c) - 1)
    rate = max([(abs(c[j]) / (inner * max(1.0, abs(c[0])))) ** (1.0 / j) for c in polys for j in last(c)]
               + [math.e ** 2 * abs(p[j] / p[0]) ** (1.0 / j) for j in last(p)])  # 1/h
    return polys, 1.0 / rate if rate else math.inf


def integrate(init: Jet4, t_end: float, tol: float) -> Trajectory:
    """Solve (u, p, q, r)' = (p, q, r, F) from init.t to t_end by Taylor
    steps, with the error of each step held to a fraction of tol relative to
    max(1, |y|).  Works in either time direction.  Stops POLE_MARGIN before
    the first pole of u on the way (or halfway to a pole nearer than twice
    that), or where |p| falls to SINGULARITY_FLOOR on the exact solution
    through init, whichever comes first, landing exactly there.
    A jet or t_end that is not finite, a span t_end - init.t that
    overflows, or a jet where F is not finite, on which no step can be
    taken, raises ValueError; a step whose values are not finite, or that
    does not move t, raises IntegrationError."""
    if not all(math.isfinite(x) for x in (*init.as_tuple(), t_end)):
        raise ValueError(f"need a finite jet and t_end, got {init.as_tuple()} and {t_end}")
    if not math.isfinite(t_end - init.t):
        raise ValueError(f"the run's span t_end - t = {t_end} - {init.t} is not finite")
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tolerance {tol} outside [{TOL_MIN}, {TOL_MAX}]")
    if abs(init.p) < SINGULARITY_FLOOR:
        raise SingularJetError(f"singular initial jet (p = {init.p})")
    f0 = el_rhs(init)
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
    # a truncation error below float64's unit roundoff is lost in the sum's
    # rounding, and a finer target only raises the order
    inner = max(inner, 2.0 ** -53)
    # the first time the exact slope meets the floor, before any pole stop;
    # for S > 0 it repeats with the poles, within the same window
    floors = _floor_times(sigma, init.p, c, *sorted((0.0, span)))
    if floors:
        t_stop = init.t + min(floors, key=abs)
    # Jorba & Zou's order, at which the last terms fall to inner at about
    # e^-2 of the radius
    order = max(8, math.ceil(-math.log(inner) / 2.0) + 1)
    direction, nearer = (1.0, min) if t_stop >= init.t else (-1.0, max)
    samples, steps = [Jet4(*map(float, init.as_tuple()))], []
    t, y = samples[0].t, samples[0].as_tuple()[1:]
    while t != t_stop:
        polys, h = _taylor_step(y, t, order, inner)
        t_next = nearer(t + direction * h, t_stop)
        y = tuple(_horner(poly, t_next - t) for poly in polys)
        if t_next == t or not all(math.isfinite(x) for x in y):
            raise IntegrationError(f"integration failed at t = {t:g}: a step of size {h:g} ends at {t_next!r} "
                                   f"on {y}")
        steps.append((t, t_next, polys))
        t = t_next
        samples.append(Jet4(t, *y))
    if not steps:
        steps.append((t, t, tuple([y0] for y0 in y)))
    samples.sort(key=lambda s: s.t)
    jets = Jet4(*np.array([s.as_tuple() for s in samples]).T)
    return Trajectory(samples=tuple(samples), s_values=tuple(schwarzian(jets).tolist()),
                      c_values=tuple(mercator_c(jets).tolist()), tolerance=tol,
                      status=STATUS_COMPLETED if t_stop == t_end else STATUS_STOPPED, steps=tuple(steps),
                      t_start=init.t, t_final=t)


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


def write_csv(traj: Trajectory, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(trajectory_csv(traj))

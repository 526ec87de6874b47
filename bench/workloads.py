"""The four benchmark workloads: inputs generated from the seed, the timed
call into schwarzlab's public API, and an oracle for every op.

Ops come in blocks of fixed composition (curve kinds, field kinds, sigma
classes, pole crossings), so that a short run sees the same mix on every
seed.  Block b is generated from the seed and b alone.

An oracle returns one of three verdicts:
  PASS   the result agrees with the oracle;
  FAIL   the op could not deliver a trustworthy result: it raised, or one of
         the program's own accuracy gates (criterion 7's endpoint and D_u
         residuals) was missed; it counts in `failed`;
  WRONG  the program returned a value that an independent check contradicts;
         it counts in `failed` and makes the whole run incorrect.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import schwarzlab.closed_form as C
import schwarzlab.el_ode as E
import schwarzlab.ode_geometry as G
import schwarzlab.variation as V
from schwarzlab.errors import SchwarzLabError
from schwarzlab.schwarzian import EL_FIELD_TEXT, Jet4, schwarzian

PASS, FAIL, WRONG = "pass", "fail", "wrong"
CLASSES = ("hyperbolic", "parabolic", "elliptic")


def _rng(seed, *key):
    return np.random.default_rng([seed, *key])


def random_family(rng, family_class, sigma_lo=0.1, c_zero=False):
    """Moebius family of the given class with |AD - BC| >= 0.3."""
    sigma = {"hyperbolic": -rng.uniform(sigma_lo, 3.0), "parabolic": 0.0,
             "elliptic": rng.uniform(sigma_lo, 3.0)}[family_class]
    while True:
        a, b, c, d = (float(x) for x in rng.uniform(-2.0, 2.0, size=4))
        if c_zero:
            c = 0.0
        if abs(a * d - b * c) >= 0.3:
            return C.MobiusFamily(a, b, c, d, float(sigma))


def healthy_curve(rng, family_class, sigma_lo=0.1, max_ratio=8.0, p_floor=0.2):
    """A MobiusCurve on a pole-free window of length <= 1 inside [-2, 2], at
    least 0.2 from every singular time, with |u'| >= p_floor and |u''/u'|,
    |u'''/u'| <= max_ratio: the well-conditioned regime the acceptance suite
    draws its curves from."""
    while True:
        fam = random_family(rng, family_class, sigma_lo)
        edges = [-2.5] + C.family_singularities(fam, -2.5, 2.5) + [2.5]
        windows = [(max(a + 0.2, -2.0), min(b - 0.2, 2.0)) for a, b in zip(edges[:-1], edges[1:])]
        windows = [w for w in windows if w[1] - w[0] >= 0.35]
        if not windows:
            continue
        a, b = max(windows, key=lambda w: w[1] - w[0])
        b = min(b, a + 1.0)
        # the cheap jet tests first: the curve's own regularity check
        # evaluates 101 jets, and most draws fail these
        jets = [C.family_eval_jet(fam, a + (b - a) * i / 16) for i in range(17)]
        if min(abs(j.p) for j in jets) < p_floor:
            continue
        if max(max(abs(j.q / j.p), abs(j.r / j.p)) for j in jets) > max_ratio:
            continue
        try:
            return V.MobiusCurve(fam, (a, b))
        except SchwarzLabError:
            continue


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def block(self, b: int) -> list:
        raise NotImplementedError

    def call(self, op):
        raise NotImplementedError

    def check(self, op, result) -> tuple:
        raise NotImplementedError

    def corrupt(self, op, result):
        """A copy of a passing result with one value changed beyond its
        oracle's tolerance; the self-test feeds it to check()."""
        raise NotImplementedError

    def run_checks(self) -> list:
        """Run-level checks after all ops; a list of WRONG reasons."""
        return []

    def record(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# critical: one critical-point probe per op
# ---------------------------------------------------------------------------

EXPR_CURVES = (("tan(t)", (0.1, 1.0)), ("exp(2*t)", (0.0, 1.0)), ("sin(t) + 2*t", (0.0, 1.0)))


class Critical(Workload):
    """One op is one probe critical_test(curve, t0, t1, n=1, seed=k): solve_du,
    the D_u residual and the Schwarzian-form quadrature, the ROADMAP hot
    path."""

    name = "critical"

    def __init__(self, seed):
        super().__init__(seed)
        rng = _rng(seed, 0)
        # 3 S=0 curves (the fastest probes), 3 fixed expression curves, 4
        # sigma!=0 curves (the slowest): the median falls inside the
        # expression probes and the 90th percentile inside the sigma!=0 ones,
        # not on an edge between two kinds
        self.curves = [("mobius0", healthy_curve(rng, "parabolic")) for _ in range(3)]
        self.curves += [("mobius", healthy_curve(rng, ("hyperbolic", "elliptic")[i % 2], sigma_lo=0.5))
                        for i in range(4)]
        self.curves += [("expr", V.ExprCurve(text, dom)) for text, dom in EXPR_CURVES]
        self.max_delta = [0.0] * len(self.curves)
        self.probes = [0] * len(self.curves)

    def block(self, b):
        rng = _rng(self.seed, 1, b)
        return [(i, int(rng.integers(0, 2 ** 31))) for i in range(len(self.curves))]

    def call(self, op):
        i, k = op
        curve = self.curves[i][1]
        t0, t1 = curve.domain
        return V.critical_test(curve, t0, t1, n=1, seed=k)

    def check(self, op, rep):
        i = op[0]
        kind = self.curves[i][0]
        if not math.isfinite(rep.max_delta):
            return WRONG, "delta not finite"
        self.max_delta[i] = max(self.max_delta[i], rep.max_delta)
        self.probes[i] += 1
        if kind == "mobius0" and rep.max_delta > 1e-8:
            return WRONG, "S=0 curve with |delta| > 1e-8"
        if not rep.max_endpoint_residual <= 1e-10:
            return FAIL, "endpoint residual > 1e-10"
        if not rep.max_du_residual <= 1e-9:
            return FAIL, "du residual > 1e-9"
        return PASS, ""

    def corrupt(self, op, rep):
        if self.curves[op[0]][0] == "mobius0":
            return dataclasses.replace(rep, max_delta=rep.max_delta + 1e-6)
        return dataclasses.replace(rep, max_delta=float("nan"))

    def run_checks(self):
        return [f"no witness |delta| > 1e-3 on {curve.describe()} in {n} probes"
                for (kind, curve), d, n in zip(self.curves, self.max_delta, self.probes)
                if kind != "mobius0" and n and d <= 1e-3]

    def record(self):
        return {"curves": [c.describe() for _, c in self.curves], "probes_per_curve": self.probes}


# ---------------------------------------------------------------------------
# forms: the equivalent forms of the first variation and the functionals
# ---------------------------------------------------------------------------

N_FORM_PAIRS = 24


class Forms(Workload):
    """One op is one (curve, variation) pair: delta_form in three forms,
    delta_fd and both functionals.  The same quadrature as critical, without
    solve_du or an admissible variation."""

    name = "forms"

    def block(self, b):
        # fresh pairs in every block: an op's cost depends mostly on its
        # curve, and with one fixed set of 24 curves per seed the 90th
        # percentile was the cost of that seed's two or three slowest curves
        rng = _rng(self.seed, 1, b)
        ops = []
        for i in range(N_FORM_PAIRS):
            curve = healthy_curve(rng, CLASSES[i % 3])
            c = [float(x) for x in rng.uniform(-1.0, 1.0, size=5)]
            ops.append((curve, V.ExprVariation(
                f"{c[0]!r} + {c[1]!r}*t + {c[2]!r}*t^2 + {c[3]!r}*t^3 + {c[4]!r}*sin(t)")))
        return ops

    def call(self, op):
        u, v = op
        t0, t1 = u.domain
        totals = [sum(V.delta_form(f, u, v, t0, t1)) for f in ("direct", "by_parts", "du_factored")]
        fd = V.delta_fd("I_L", u, v)
        return totals, fd, V.functional_IS(u, t0, t1), V.functional_IL(u, t0, t1)

    def check(self, op, result):
        totals, fd, i_s, i_l = result
        u = op[0]
        t0, t1 = u.domain
        ja, jb = u.jet(t0), u.jet(t1)
        if not all(math.isfinite(x) for x in (*totals, fd, i_s, i_l)):
            return WRONG, "non-finite value"
        if not max(totals) - min(totals) <= 1e-8:
            return WRONG, "forms disagree by > 1e-8 (criterion 5)"
        if not abs(fd - totals[0]) / max(1.0, abs(fd)) <= 1e-5:
            return WRONG, "finite difference disagrees by > 1e-5 (criterion 5)"
        if not abs(i_s - ((jb.q / jb.p - ja.q / ja.p) - 0.5 * i_l)) <= 1e-9:
            return WRONG, "I_S identity defect > 1e-9 (criterion 6)"
        return PASS, ""

    def corrupt(self, op, result):
        totals, fd, i_s, i_l = result
        return totals, fd, i_s, i_l + 1e-6


# ---------------------------------------------------------------------------
# invariants: W0 and W1 on random jets
# ---------------------------------------------------------------------------

N_LINEAR_FIELDS = 6


class Invariants(Workload):
    """One op is one invariants_at(field, jet) row: Taylor arithmetic in
    symbolics only, no scipy."""

    name = "invariants"

    def __init__(self, seed):
        super().__init__(seed)
        rng = _rng(seed, 0)
        # (field, (a1, a2, a3)) with a = None for the EL field
        self.fields = [(G.OdeField.from_expression(EL_FIELD_TEXT), None),
                       (G.OdeField.from_expression("r"), (0.0, 0.0, 1.0))]
        for _ in range(N_LINEAR_FIELDS):
            a3, a2, a1, a0, c = (float(x) for x in rng.uniform(-2.0, 2.0, size=5))
            text = f"{a3!r}*r + {a2!r}*q + {a1!r}*p + {a0!r}*u + {c!r}"
            self.fields.append((G.OdeField.from_expression(text), (a1, a2, a3)))

    def block(self, b):
        # three EL ops, one r op and four of the linear fields in turn: the EL
        # ops are the slowest, and at 3 in 8 the 90th percentile falls inside
        # them rather than on the edge between two kinds of op
        rng = _rng(self.seed, 1, b)
        ops = []
        for i in (0, 0, 0, 1, *(2 + (4 * b + j) % N_LINEAR_FIELDS for j in range(4))):
            p = float(rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(math.log(0.1), math.log(10.0))))
            t, u, q, r = (float(x) for x in rng.uniform(-1.0, 1.0, size=4))
            ops.append((i, Jet4(t, u, p, q, r)))
        return ops

    def call(self, op):
        i, jet = op
        return G.invariants_at(self.fields[i][0], jet)

    def check(self, op, row):
        i, jet = op
        a = self.fields[i][1]
        w0, w1 = row["W0"], row["W1"]
        if a is None:
            s = schwarzian(jet)
            want0, want1 = -0.36 * s * s, 0.0
        else:
            a1, a2, a3 = a
            want1 = -0.375 * a3 ** 3 - 1.5 * a2 * a3 - 3.0 * a1
            want0 = (11.0 / 1600.0) * a3 ** 4 - 0.005 * a3 ** 2 * a2 - 0.09 * a2 ** 2
        if not _rel(w1, want1) <= 1e-9:
            return WRONG, "W1 disagrees with the closed form"
        if not _rel(w0, want0) <= 1e-9:
            return WRONG, "W0 disagrees with the closed form"
        return PASS, ""

    def corrupt(self, op, row):
        return {**row, "W0": row["W0"] + 1e-6 * max(1.0, abs(row["W0"]))}


# ---------------------------------------------------------------------------
# integrate: the stationarity equation from an exact family jet
# ---------------------------------------------------------------------------

# One block: (sigma classes, C = 0, crosses a true singular time) per slot.
# Where a slot lists two classes, or None for C = 0, even blocks take the
# first choice and odd blocks the second.  Two slots in ten cross: the 90th
# percentile then falls in the middle of the crossing ops and the median
# well inside the others, not on the edge between the two.
INTEGRATE_SLOTS = (
    (("hyperbolic",), False, False),
    (("parabolic",), False, False),
    (("elliptic",), None, True),
    (("elliptic",), False, False),
    (("hyperbolic",), False, False),
    (("parabolic",), False, False),
    (("elliptic",), True, False),
    (("parabolic", "hyperbolic"), False, True),
    (("hyperbolic",), False, False),
    (("elliptic",), False, False),
)
LOG_TOL = (-12.0, -6.0)
# Ops that cross a singular time take a narrower band.  Today each of them
# runs until the step size collapses, which takes 14 times longer at 1e-12
# than at 1e-6; over the full range the 90th percentile, which falls among
# these ops, spread by 10-15 % between runs.  At the loose end of the range
# they fail in 0.1-0.17 s, so a run holds more of them than with [1e-9, 1e-7].
LOG_TOL_CROSSING = (-7.0, -6.0)
HORIZON = 4.0
# ops start at least this far from a singular time, and a stop must come
# at most this far before one
SING_STOP_WITHIN = 0.1


def _spread(k, alpha=(math.sqrt(5.0) - 1.0) / 2.0):
    """Point k of an additive-recurrence sequence in [0, 1): every run of
    consecutive points covers [0, 1) about evenly, however many ops a run
    gets through.  The sequence is the same on every seed: an op's cost
    grows more than tenfold over the tolerance range, and a seeded shift of
    the tolerances alone moved the median cost of the crossing ops by up to
    a fifth.  The seed draws the families and the start and end times."""
    return (0.5 + k * alpha) % 1.0


def true_singular_times(f, t0, t1):
    """Times in [t0, t1] where u itself blows up, from the closed form: zeros
    of C*g + D, or the poles of tan when C = 0.  Poles of the tan generator
    with C != 0 are removable for u and are not listed."""
    out = []
    if f.sigma < 0:
        a = math.sqrt(-2.0 * f.sigma)
        if f.C != 0.0 and -f.D / f.C > 0.0:
            out.append(math.log(-f.D / f.C) / a)
    elif f.sigma == 0.0:
        if f.C != 0.0:
            out.append(-f.D / f.C)
    else:
        w = math.sqrt(f.sigma / 2.0)
        phase = math.pi / 2.0 if f.C == 0.0 else math.atan(-f.D / f.C)
        k = math.ceil((w * t0 - phase) / math.pi)
        while (phase + k * math.pi) / w <= t1:
            out.append((phase + k * math.pi) / w)
            k += 1
    return sorted(t for t in out if t0 <= t <= t1)


def exact_jet(f, t):
    """The family's jet at t from its closed form.  Near a pole of tan(w t)
    the composite (A g + B)/(C g + D) cancels large terms, so there the
    equivalent family in h = tan(w t - pi/2) = -1/g is used instead:
    u = (B h - A)/(D h - C), whose generator stays in [-1, 1]."""
    if f.sigma > 0.0:
        w = math.sqrt(f.sigma / 2.0)
        if abs(math.tan(w * t)) > 1.0:
            g = C.family_eval_jet(C.MobiusFamily(f.B, -f.A, f.D, -f.C, f.sigma), t - math.pi / (2.0 * w))
            return Jet4(t, g.u, g.p, g.q, g.r)
    return C.family_eval_jet(f, t)


class Integrate(Workload):
    """One op is integrate(family_eval_jet(fam, t_s), t_end, tol) followed by
    invariant_drift: the el_ode RK45 loop and its pole handling."""

    name = "integrate"

    def __init__(self, seed):
        super().__init__(seed)
        self.generated = self.crossing = 0

    def block(self, b):
        rng = _rng(self.seed, 1, b)
        n_cross = sum(1 for s in INTEGRATE_SLOTS if s[2])
        n_plain = len(INTEGRATE_SLOTS) - n_cross
        ops = []
        k_cross, k_plain = b * n_cross, b * n_plain
        for classes, c_zero, crossing in INTEGRATE_SLOTS:
            cls = classes[b % len(classes)]
            # log-uniform tolerances, crossing and other ops each spread evenly
            if crossing:
                lo, hi = LOG_TOL_CROSSING
                tol = 10.0 ** (lo + (hi - lo) * _spread(k_cross))
                k_cross += 1
            else:
                lo, hi = LOG_TOL
                tol = 10.0 ** (lo + (hi - lo) * _spread(k_plain))
                frac = 0.25 + 0.5 * _spread(k_plain, math.sqrt(2.0) - 1.0)
                k_plain += 1
            if c_zero is None:
                c_zero = b % 2 == 0
            while True:
                fam = random_family(rng, cls, c_zero=c_zero)
                ts = float(rng.uniform(-1.0, 1.0))
                sing = true_singular_times(fam, ts - SING_STOP_WITHIN, ts + HORIZON)
                if any(abs(t - ts) < SING_STOP_WITHIN for t in sing):
                    continue
                ahead = [t for t in sing if t > ts]
                if crossing:
                    if not ahead or ahead[0] > ts + 3.0:
                        continue
                    t_end = ahead[0] + float(rng.uniform(0.1, 1.0))
                else:
                    t_end = ts + frac * (min(ahead[0] - ts, 2.0) if ahead else 2.0)
                break
            ops.append((fam, ts, t_end, tol, ahead[0] if crossing else None))
        self.generated += len(ops)
        self.crossing += n_cross
        return ops

    def call(self, op):
        fam, ts, t_end, tol, _ = op
        traj = E.integrate(C.family_eval_jet(fam, ts), t_end, tol)
        return traj, E.invariant_drift(traj)

    def check(self, op, result):
        fam, ts, t_end, tol, t_sing = op
        traj, drift = result
        if t_sing is not None:
            # the only right outcome: a stop close before the singular time
            if traj.status != E.STATUS_STOPPED or traj.t_final >= t_sing:
                return WRONG, "integrated through a true singular time"
            if t_sing - traj.t_final > SING_STOP_WITHIN:
                return WRONG, f"stopped more than {SING_STOP_WITHIN} before the singular time"
        elif traj.status != E.STATUS_COMPLETED or traj.t_final != t_end:
            return WRONG, f"status {traj.status} at t = {traj.t_final} before t_end"
        # the accuracy integrate() promises: endpoint within 10*tol
        want = exact_jet(fam, traj.t_final)
        got = traj.final
        for name in ("u", "p", "q", "r"):
            if not _rel(getattr(got, name), getattr(want, name)) <= 10.0 * tol:
                return WRONG, f"endpoint {name} off the exact family by > 10*tol"
        if not all(math.isfinite(x) for x in drift):
            return WRONG, "non-finite invariant drift"
        return PASS, ""

    def corrupt(self, op, result):
        traj, drift = result
        final = traj.final
        bad = dataclasses.replace(final, u=final.u + 1e-4 * max(1.0, abs(final.u)))
        return dataclasses.replace(traj, samples=traj.samples[:-1] + (bad,)), drift

    def record(self):
        return {"ops_crossing_a_true_singular_time": self.crossing, "ops_generated": self.generated,
                "crossing_share": self.crossing / max(1, self.generated)}


WORKLOADS = {w.name: w for w in (Critical, Forms, Invariants, Integrate)}

"""Adaptive integration of the stationarity equation: oracle agreement,
first-integral conservation, convergence, time reversal, and the CSV export
format."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import exact_jet, max_rel_error, nonsingular_window, random_family, random_jet
from schwarzlab import el_ode
from schwarzlab.closed_form import (MobiusFamily, family_derivs, family_eval_jet, family_of_jet, family_singularities,
                                    generator_solve)
from schwarzlab.el_ode import (
    POLE_MARGIN,
    SINGULARITY_FLOOR,
    STATUS_COMPLETED,
    STATUS_STOPPED,
    integrate,
    invariant_drift,
    trajectory_csv,
    write_csv,
)
from schwarzlab.errors import IntegrationError, SchwarzLabError, SingularJetError
from schwarzlab.schwarzian import Jet4, schwarzian

ROOT = Path(__file__).resolve().parents[1]
TAN_FAMILY = MobiusFamily(1, 0, 0, 1, 2.0)
EXP2_FAMILY = MobiusFamily(1, 0, 0, 1, -2.0)


def test_line_is_fixed():
    traj = integrate(Jet4(0, 0, 1, 0, 0), 5.0, 1e-10)
    fin = traj.final
    assert traj.status == STATUS_COMPLETED
    assert np.allclose(fin.as_tuple(), (5.0, 5.0, 1.0, 0.0, 0.0), rtol=0, atol=1e-10)


def test_tan_jet_reaches_tan_of_one():
    traj = integrate(Jet4(0, 0, 1, 0, 2), 1.0, 1e-10)
    oracle = family_eval_jet(TAN_FAMILY, 1.0)
    assert abs(oracle.u - math.tan(1.0)) < 1e-14
    for name in ("u", "p", "q", "r"):
        err = abs(getattr(traj.final, name) - getattr(oracle, name))
        assert err <= 1e-9 * max(1.0, abs(getattr(oracle, name)))


def test_tan_jet_in_few_steps():
    # Taylor steps of degree 20 reach tan(1) at tol 1e-12 in 11 steps
    tol = 1e-12
    traj = integrate(Jet4(0, 0, 1, 0, 2), 1.0, tol)
    assert abs(traj.final.u - math.tan(1.0)) <= 10 * tol * math.tan(1.0)
    assert len(traj.samples) - 1 < 100


def test_a_jet_near_the_top_of_the_float_range_is_integrated():
    # u = 1e150 tan(t): q^3 would overflow, F and the solution do not
    tol, scale = 1e-10, 1e150
    traj = integrate(Jet4(0.0, 0.0, scale, 0.0, 2.0 * scale), 1.0, tol)
    assert traj.status == STATUS_COMPLETED
    for t in np.linspace(0.05, 0.95, 10).tolist():
        u = math.tan(t)
        p = 1.0 + u * u
        tan_jet = Jet4(t, u, p, 2.0 * u * p, 2.0 * p * (1.0 + 3.0 * u * u))
        got = traj.jet_at(t)
        scaled = Jet4(t, *(x / scale for x in got.as_tuple()[1:]))
        assert max_rel_error(scaled, tan_jet) <= 10 * tol


def test_zero_length_run_has_one_sample():
    start = Jet4(0.5, 0, 1, 0, 2)
    traj = integrate(start, 0.5, 1e-10)
    assert traj.samples == (start,)
    assert traj.final == start
    assert traj.jet_at(0.5) == start


# the README's command lines and their documented exit codes
spec = importlib.util.spec_from_file_location("cold_start", ROOT / "tools" / "cold_start.py")
cold_start = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cold_start)

# a fresh process where any import of scipy raises: the exit code of each
# README command, run in the working directory given, output swallowed, and
# the samples of one integrate run
WITHOUT_SCIPY = """
import contextlib, io, json, os, sys

sys.modules["scipy"] = None
from schwarzlab import Jet4, cli, integrate

os.chdir(sys.argv[1])
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
traj = integrate(Jet4(0, 0, 1, 0, 2), 1.0, 1e-10)
print(json.dumps({"codes": codes, "samples": repr(traj.samples)}))
"""


def test_no_command_loads_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argvs, codes = zip(*cold_start.COMMANDS)
    out = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path), json.dumps(argvs)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["codes"] == list(codes)
    assert report["samples"] == repr(integrate(Jet4(0, 0, 1, 0, 2), 1.0, 1e-10).samples)


def test_exp2_jet_endpoint():
    traj = integrate(Jet4(0, 1, 2, 4, 8), 1.0, 1e-10)
    assert abs(traj.final.u - math.e ** 2) <= 1e-9 * math.e ** 2
    assert abs(traj.final.p - 2 * math.e ** 2) <= 1e-9 * 2 * math.e ** 2


def test_drift_examples():
    line = integrate(Jet4(0, 0, 1, 0, 0), 5.0, 1e-10)
    assert invariant_drift(line) == (0.0, 0.0)
    tan = integrate(Jet4(0, 0, 1, 0, 2), 1.0, 1e-10)
    ds, dc = invariant_drift(tan)
    assert ds <= 1e-8 and dc <= 1e-8
    exp2 = integrate(Jet4(0, 1, 2, 4, 8), 1.0, 1e-10)
    ds, dc = invariant_drift(exp2)
    assert ds <= 1e-8 and dc <= 1e-8


def test_conservation_on_random_trajectories():
    rng = np.random.default_rng(31)
    tol = 1e-10
    done = 0
    while done < 15:
        j = random_jet(rng, 0.5, 2.0)
        traj = integrate(j, j.t + 0.5, tol)
        if traj.status != STATUS_COMPLETED:
            continue
        ds, dc = invariant_drift(traj)
        assert ds <= 100 * tol and dc <= 100 * tol
        assert max_rel_error(traj.final, exact_jet(family_of_jet(j), traj.t_final)) <= 10 * tol
        done += 1


def test_convergence_order():
    oracle = family_eval_jet(TAN_FAMILY, 1.0)
    errors = []
    tol = 1e-5
    for _ in range(6):
        traj = integrate(Jet4(0, 0, 1, 0, 2), 1.0, tol)
        fin = traj.final
        errors.append(
            max(
                abs(getattr(fin, n) - getattr(oracle, n)) / max(1.0, abs(getattr(oracle, n)))
                for n in "upqr"
            )
        )
        tol /= 2.0
    assert all(b < a for a, b in zip(errors[:-1], errors[1:])), errors


def test_time_reversal():
    tol = 1e-10
    start = Jet4(0, 0, 1, 0, 2)
    fwd = integrate(start, 1.0, tol)
    back = integrate(fwd.final, 0.0, tol)
    ret = back.final
    assert back.t_final == 0.0
    for name in ("u", "p", "q", "r"):
        assert abs(getattr(ret, name) - getattr(start, name)) <= 20 * tol


def test_backward_samples_ascending():
    traj = integrate(Jet4(1.0, 1.0, 1.0, 0.5, 0.0), 0.0, 1e-9)
    ts = [j.t for j in traj.samples]
    assert ts == sorted(ts)
    assert traj.final.t == 0.0


def test_singularity_stop():
    # u = e^t/(e^t + 1): u' decays like e^{-t}, crossing the floor near t=18.4
    start = family_eval_jet(MobiusFamily(1, 0, 1, 1, -0.5), 0.0)
    traj = integrate(start, 30.0, 1e-10)
    assert traj.status == STATUS_STOPPED
    assert abs(traj.final.p) >= 1e-8 * (1 - 1e-9)
    assert traj.final.t < 30.0
    assert all(abs(j.p) >= 1e-8 * (1 - 1e-9) for j in traj.samples)


# the exact solution through this jet is u = e^t/(e^t + 1), whose slope
# e^t/(e^t + 1)^2 meets the floor at t = +-2 acosh(1/(2 sqrt(floor)))
LOGISTIC = Jet4(0.0, 0.5, 0.25, 0.0, -0.125)
LOGISTIC_FLOOR_T = 2.0 * math.acosh(0.5 / math.sqrt(SINGULARITY_FLOOR))


def test_floor_event_only_where_the_exact_solution_reaches_it():
    for t_end in (30.0, -30.0):
        traj = integrate(LOGISTIC, t_end, 1e-10)
        assert traj.status == STATUS_STOPPED
        assert abs(traj.t_final) == pytest.approx(LOGISTIC_FLOOR_T, abs=1e-3)
    # the exact slope stays above the floor up to t_end, so the run
    # completes, though a loose tolerance's numerical slope once reached
    # the floor first
    t_end = 0.25 - LOGISTIC_FLOOR_T
    traj = integrate(LOGISTIC, t_end, 1e-3)
    assert traj.status == STATUS_COMPLETED and traj.t_final == t_end
    assert abs(traj.final.p - family_eval_jet(family_of_jet(LOGISTIC), t_end).p) <= 1e-3 * SINGULARITY_FLOOR


def test_floor_time_in_closed_form():
    s = el_ode._floor_times(schwarzian(LOGISTIC), LOGISTIC.p, 0.0, -100.0, 100.0)
    assert s == pytest.approx([-LOGISTIC_FLOOR_T, LOGISTIC_FLOOR_T], rel=1e-12)
    assert el_ode._floor_times(schwarzian(LOGISTIC), LOGISTIC.p, 0.0, -18.0, 18.0) == []


@pytest.mark.parametrize("sigma, p, c", [(-0.5, 0.3, 0.2), (-0.5, -2.0, 0.7), (0.0, 1e-5, 1.0), (0.0, -4e-6, -0.5),
                                         (2.0, 1e-6, 20.0), (0.5, -1e-7, -4.0)])
def test_floor_time_matches_a_scan_of_the_exact_slope(sigma, p, c):
    # the exact solution through the jet (0, 0, p, 2pc, p (sigma + 6c^2)),
    # whose S is sigma; its |u'| scanned on a fine grid, each crossing of
    # the floor then bisected
    fam = family_of_jet(Jet4(0.0, 0.0, p, 2.0 * p * c, p * (sigma + 6.0 * c * c)))
    lo, hi = -60.0, 60.0
    ts = np.linspace(lo, hi, 239_999)  # no point on a pole
    above = np.abs(family_derivs(fam, ts)[1]) > SINGULARITY_FLOOR
    scanned = []
    for i in np.flatnonzero(above[1:] != above[:-1]):
        a, b = ts[i], ts[i + 1]
        for _ in range(60):
            mid = 0.5 * (a + b)
            if (abs(family_derivs(fam, mid)[1]) > SINGULARITY_FLOOR) == above[i]:
                a = mid
            else:
                b = mid
        scanned.append(0.5 * (a + b))
    assert scanned, "no crossing of the floor in the window"
    assert el_ode._floor_times(sigma, p, c, lo, hi) == pytest.approx(scanned, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("p, c", [(1e-5, 1.0), (-4e-6, -0.5)])
def test_floor_times_where_k_underflows_are_those_of_sigma_0(p, c):
    # -sigma/2 is 0: the quadratic in z would have k = 0, so the one in G is taken
    want = el_ode._floor_times(0.0, p, c, -60.0, 60.0)
    assert want
    assert el_ode._floor_times(-5e-324, p, c, -60.0, 60.0) == want


@pytest.mark.parametrize("jet, f", [((0.0, 0.0, 1.0, 1e200, 0.0), "-inf"), ((0.0, 0.0, 1.0, 1e200, 1e200), "nan")])
def test_jet_where_F_is_not_finite_is_refused_before_the_solve(jet, f, monkeypatch):
    # F on float64, as el_rhs computes it; no step can be taken there
    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(el_ode, "flow_sweep", no_step)
    with pytest.raises(ValueError, match=re.escape(f"F = {f} at the initial jet {jet}")):
        integrate(Jet4(*jet), 1.0, 1e-10)


def sweep_runs():
    """Seeded runs of every kind: exact family jets of each class and raw
    jets with |p| down to 1e-8, both directions, t_end up to 300 away,
    tolerances log-uniform over the allowed range, and runs that end just
    before the logistic's floor time at a loose tolerance."""
    rng = np.random.default_rng(24)
    for i in range(240):
        if i % 4 < 3:
            fam = random_family(rng, ("hyperbolic", "parabolic", "elliptic")[i % 4])
            t0 = float(rng.uniform(-1.0, 1.0))
            if any(abs(t - t0) < 0.05 for t in family_singularities(fam, t0 - 0.1, t0 + 0.1)):
                continue
            start = family_eval_jet(fam, t0)
        else:
            start = random_jet(rng, p_lo=1e-8, p_hi=1.0)
        t_end = start.t + float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, math.log10(300.0)))
        yield start, t_end, float(10.0 ** rng.uniform(-13.0, -3.0))
    for t_end in np.linspace(LOGISTIC_FLOOR_T - 0.5, LOGISTIC_FLOOR_T, 6):
        for sign in (1.0, -1.0):
            yield LOGISTIC, sign * float(t_end), 1e-3


def outcome(start, t_end, tol, action):
    """What a run gives, or what it raises, and the warnings it shows under
    the warnings filter action."""
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter(action)
        try:
            got = integrate(start, t_end, tol)
        except Exception as e:  # any exception, so that the test names it
            got = e
    return got, [(w.category, str(w.message), w.filename, w.lineno) for w in shown]


def closed_form_stops(start, t_end):
    """The times where a run from start toward t_end may stop: each pole
    stop, POLE_MARGIN before a pole of the exact solution through start (or
    halfway to a nearer one), and each time its slope meets the floor."""
    sigma, span, c = schwarzian(start), t_end - start.t, start.q / (2.0 * start.p)
    if sigma / 2.0 > 0:
        span = math.copysign(min(abs(span), 2.0 * math.pi / math.sqrt(sigma / 2.0)), span)
    window = sorted((0.0, span))
    stops = [start.t + math.copysign(abs(s) - min(POLE_MARGIN, 0.5 * abs(s)), span)
             for s in generator_solve(sigma, 1.0, c, *window)]
    return stops + [start.t + s for s in el_ode._floor_times(sigma, start.p, c, *window)]


@pytest.mark.parametrize("action", ["error", "default"])
def test_integrate_is_the_always_watching_run(action):
    # every run watches the floor and the poles in closed form: it ends at
    # t_end or at one of those stops, or raises a typed error, and shows no
    # warning
    for start, t_end, tol in sweep_runs():
        got, shown = outcome(start, t_end, tol, action)
        assert shown == [], (start, t_end, tol)
        if isinstance(got, Exception):
            assert isinstance(got, (SchwarzLabError, ValueError)), (start, t_end, tol, got)
        elif got.status == STATUS_COMPLETED:
            assert got.t_final == t_end
        else:
            assert got.t_final in closed_form_stops(start, t_end), (start, t_end, tol)


def test_a_run_past_the_floor_without_its_stop_fails_typed(monkeypatch):
    # with the floor stop left out, the logistic run goes far past its floor
    # time, where |u'| decays below the singularity floor: reading the
    # samples' S refuses the first such sample, and no warning shows
    monkeypatch.setattr(el_ode, "_floor_times", lambda *args: [])
    got, shown = outcome(LOGISTIC, 1000.0, 1e-3, "default")
    assert type(got) is SingularJetError
    assert str(got).startswith("|u'| = 8.681e-13 below singularity floor at t = 27.77")
    assert shown == []


def test_dense_output_matches_samples():
    # forward, backward, and stopped at the floor
    runs = ((Jet4(0, 0, 1, 0, 2), 1.0), (Jet4(1.0, 1.0, 1.0, 0.5, 0.0), 0.0),
            (family_eval_jet(MobiusFamily(1, 0, 1, 1, -0.5), 0.0), 30.0))
    for start, t_end in runs:
        traj = integrate(start, t_end, 1e-10)
        ts = np.array([s.t for s in traj.samples])
        for s in traj.samples:
            assert traj.jet_at(s.t) == s
        for t in (ts, (ts[1:] + ts[:-1]) / 2.0):
            read = traj.jet_at(t)
            for k, tk in enumerate(t.tolist()):
                assert tuple(float(x[k]) for x in read.as_tuple()) == traj.jet_at(tk).as_tuple()
        with pytest.raises(ValueError):
            traj.jet_at(t_end + math.copysign(1.0, t_end - start.t))


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        integrate(Jet4(0, 0, 1, 0, 0), 1.0, 1e-2)
    with pytest.raises(ValueError):
        integrate(Jet4(0, 0, 1, 0, 0), 1.0, 1e-14)


def test_singular_initial_jet():
    with pytest.raises(SingularJetError):
        integrate(Jet4(0, 0, 0, 1, 0), 1.0, 1e-10)


def test_csv_format(tmp_path):
    traj = integrate(Jet4(0, 0, 1, 0, 0), 5.0, 1e-10)
    text = trajectory_csv(traj)
    lines = text.split("\n")
    assert lines[0] == "t,u,p,q,r,S,C"
    assert lines[-1] == ""  # trailing LF
    rows = [ln for ln in lines[1:] if ln]
    assert len(rows) == len(traj.samples)
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 7
        s_col = float(fields[5])
        assert s_col == 0.0  # straight line has S identically zero
    # 17 significant digits survive a parse round trip
    tan = integrate(Jet4(0, 0, 1, 0, 2), 1.0, 1e-10)
    row = trajectory_csv(tan).split("\n")[-2].split(",")
    assert float(row[1]) == tan.final.u

    path = tmp_path / "traj.csv"
    write_csv(tan, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().startswith("t,u,p,q,r,S,C\n")


def test_oracle_equivalence_random_windows():
    rng = np.random.default_rng(33)
    tol = 1e-10
    for cls in ("hyperbolic", "parabolic", "elliptic"):
        done = 0
        while done < 3:
            fam = random_family(rng, cls)
            window = nonsingular_window(fam, min_len=0.5)
            if window is None:
                continue
            t0 = window[0]
            t1 = min(window[1], t0 + 1.0)
            start = family_eval_jet(fam, t0)
            if abs(start.p) < 1e-3:
                continue
            traj = integrate(start, t1, tol)
            if traj.status != STATUS_COMPLETED:
                continue
            oracle = family_eval_jet(fam, t1)
            for name in ("u", "p", "q", "r"):
                err = abs(getattr(traj.final, name) - getattr(oracle, name))
                assert err <= 10 * tol * max(1.0, abs(getattr(oracle, name)))
            done += 1


def test_solver_failure_is_typed(failing_solver):
    with pytest.raises(IntegrationError, match="integration failed at t = 0.7"):
        integrate(Jet4(0.0, 0.0, 1.0, 0.0, 2.0), 1.0, 1e-10)


@pytest.mark.parametrize("t_end", [2.0, -2.0])
def test_stops_before_the_tan_pole(t_end):
    # tan(t) from 0 toward its pole at pi/2 (or -pi/2 backward)
    tol = 1e-10
    traj = integrate(Jet4(0.0, 0.0, 1.0, 0.0, 2.0), t_end, tol)
    assert traj.status == STATUS_STOPPED
    assert math.pi / 2.0 - 0.1 <= abs(traj.t_final) < math.pi / 2.0
    assert math.copysign(1.0, traj.t_final) == math.copysign(1.0, t_end)
    assert max_rel_error(traj.final, exact_jet(TAN_FAMILY, traj.t_final)) <= 10 * tol


def test_runs_through_a_removable_tan_pole():
    # u = 1/tan(t): tan's pole at pi/2 is removable (u = 0 there), u's own
    # poles are at 0 and pi
    cot = MobiusFamily(0.0, 1.0, 1.0, 0.0, 2.0)
    tol = 1e-10
    traj = integrate(exact_jet(cot, 0.5), 2.5, tol)
    assert traj.status == STATUS_COMPLETED and traj.t_final == 2.5
    assert max_rel_error(traj.final, exact_jet(cot, 2.5)) <= 10 * tol


def test_stops_before_near_parabolic_poles():
    # exact jets of parabolic families carry a rounding-level S, not 0; the stop
    # must still sit POLE_MARGIN before the pole -D/C, in either direction
    rng = np.random.default_rng(32)
    done = 0
    while done < 200:
        fam = random_family(rng, "parabolic")
        if abs(fam.C) < 0.1:
            continue
        pole = -fam.D / fam.C
        ahead = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))
        jet = exact_jet(fam, pole - ahead)
        if schwarzian(jet) == 0.0:
            continue
        traj = integrate(jet, pole + math.copysign(0.5, ahead), 1e-3)  # t_final does not depend on tol
        assert traj.status == STATUS_STOPPED
        assert abs(traj.t_final - (pole - math.copysign(POLE_MARGIN, ahead))) <= 1e-12, (fam, jet)
        done += 1


@pytest.mark.parametrize("t0", [100.0, -100.0])
@pytest.mark.parametrize("step", [0.5, -0.5])
def test_integrate_a_member_no_family_can_hold(t0, step, monkeypatch):
    # S = -200, k = 10: e^{+-k t0} leaves the float range, so no
    # MobiusFamily holds this member; integrate must not build one
    def no_family(self):
        raise AssertionError("integrate built a MobiusFamily")

    monkeypatch.setattr(MobiusFamily, "__post_init__", no_family)
    tol = 1e-8
    traj = integrate(Jet4(t0, 0.0, 1.0, 0.0, -200.0), t0 + step, tol)
    assert traj.status == STATUS_COMPLETED and traj.t_final == t0 + step
    # the member is u = tanh(10 s)/10, s = t - t0
    assert abs(traj.final.u - math.tanh(10.0 * step) / 10.0) <= 10 * tol
    assert abs(traj.final.p - 1.0 / math.cosh(10.0 * step) ** 2) <= 10 * tol

"""Command-line interface: exit codes, output schemas, determinism, and
config-file handling."""

import json
import math
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from schwarzlab.cli import main
from schwarzlab.el_ode import POLE_MARGIN


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TooSlow(BaseException):
    """Raised by the alarm; not an Exception, so main() cannot catch it."""


def _too_slow(signum, frame):
    raise TooSlow("no answer within 5 s")


@contextmanager
def within_5_s():
    """Cut a run that never returns, or allocates without bound, after 5 s."""
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(5)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, _ = run(
        ["integrate", "--jet", "0,0,1,0,2", "--t-end", "1", "--tol", "1e-10", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "t,u,p,q,r,S,C"
    last = lines[-1].split(",")
    assert len(last) == 7
    assert abs(float(last[1]) - math.tan(1.0)) <= 1e-8
    raw = out.read_bytes()
    assert b"\r" not in raw


def test_integrate_line_zero_schwarzian(capsys):
    code, out, _ = run(["integrate", "--jet", "0,0,1,0,0", "--t-end", "5"], capsys)
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith(("#", "t,"))]
    assert all(float(row.split(",")[5]) == 0.0 for row in rows)


def test_integrate_singular_jet_exits_1(capsys):
    code, _, err = run(["integrate", "--jet", "0,0,0,1,0", "--t-end", "1"], capsys)
    assert code == 1
    assert "singular" in err


def test_integrate_stop_exits_2(capsys):
    # u = e^t/(e^t+1) decays through the u' floor around t ~ 18.4
    code, out, _ = run(
        ["integrate", "--jet", "0,0.5,0.25,0,-0.125", "--t-end", "30", "--tol", "1e-10"],
        capsys,
    )
    assert code == 2


def test_integrate_far_past_the_floor_exits_2_quietly(capsys):
    # the run is watched from the start, as the exact solution reaches the
    # floor on the way: run on past it, the solver would overflow
    code, _, err = run(
        ["integrate", "--jet", "0,0.5,0.25,0,-0.125", "--t-end", "1000", "--tol", "1e-3"],
        capsys,
    )
    assert code == 2
    assert err == ""


def test_integrate_solver_failure_exits_1(failing_solver, capsys):
    # a solver that gives up is reported as an error, not a traceback
    code, _, err = run(["integrate", "--jet", "0,0,1,0,2", "--t-end", "1"], capsys)
    assert code == 1
    assert err.startswith("error: integration failed")


def test_integrate_pole_stop_exits_2(capsys):
    # the tan(t) jet toward its pole at pi/2 stops just before it
    code, out, err = run(["integrate", "--jet", "0,0,1,0,2", "--t-end", "2"], capsys)
    assert code == 2
    assert err == ""
    last = out.splitlines()[-1].split(",")
    assert math.pi / 2.0 - 0.1 <= float(last[0]) < math.pi / 2.0


def test_integrate_near_the_top_of_the_float_range_stops_before_the_pole(capsys):
    # u = sqrt(2) 1e150 tan(t/sqrt(2)), S = 1: q^3 would overflow, F does
    # not, and the run stops POLE_MARGIN before the pole at pi/sqrt(2)
    code, out, err = run(["integrate", "--jet", "0,0,1e150,0,1e150", "--t-end", "10"], capsys)
    assert code == 2
    assert err == ""
    last = out.splitlines()[-1].split(",")
    assert abs(float(last[0]) - (math.pi / math.sqrt(2.0) - POLE_MARGIN)) <= 1e-12


def test_integrate_far_t_end_stops_before_the_first_pole(capsys):
    # only the nearest pole matters; the window up to t_end holds 3.2e8
    with within_5_s():
        code, out, err = run(["integrate", "--jet", "0,0,1,0,2", "--t-end", "1e9"], capsys)
    assert code == 2
    assert err == ""
    last = out.splitlines()[-1].split(",")
    assert abs(float(last[0]) - (math.pi / 2.0 - POLE_MARGIN)) <= 1e-15


def test_integrate_zero_length_prints_one_row(capsys):
    code, out, _ = run(["integrate", "--jet", "0,0,1,0,2", "--t-end", "0"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["t,u,p,q,r,S,C", "0,0,1,0,2,2,2"]


def test_integrate_bad_jet_exits_1(capsys):
    code, _, err = run(["integrate", "--jet", "0,0,1", "--t-end", "1"], capsys)
    assert code == 1
    assert "jet" in err


@pytest.mark.parametrize("jet", ["0,0,1,1e200,1e200", "0,0,1,1e103,1e300", "0,0,1e300,1e300,1e300"])
def test_integrate_where_F_is_nan_exits_1(jet):
    # F = -3q^3/p^2 + 4qr/p is inf - inf or inf/inf there.  The solver's
    # first step size would be NaN, which it neither accepts nor refuses, so
    # the run is made in a subprocess whose timeout fails a hang in a minute
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "schwarzlab.cli", "integrate", "--jet", jet, "--t-end", "1"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: F = nan at the initial jet")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("r", ["5e-324", "-5e-324"])
def test_integrate_where_half_of_S_underflows_is_the_S_0_run(r, capsys):
    # S = r here, and S/2 is 0: no period, no atanh(y)/k with k = 0
    code, out, err = run(["integrate", "--jet", f"0,0,1,1e-300,{r}", "--t-end", "1"], capsys)
    assert (code, err) == (0, "")
    _, line, _ = run(["integrate", "--jet", "0,0,1,1e-300,0", "--t-end", "1"], capsys)
    # F is 0 on both: the same steps, and the same t, u, p and q
    rows = [[row.split(",")[:4] for row in text.splitlines()[1:]] for text in (out, line)]
    assert rows[0] == rows[1]


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_invariants_el_field(capsys):
    code, out, _ = run(["invariants", "--field", "EL", "--jet", "0,0,1,0,2"], capsys)
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert abs(row["W0"] + 1.44) <= 1e-9
    assert abs(row["W1"]) <= 1e-9
    assert abs(row["S"] - 2.0) <= 1e-12


def test_invariants_custom_field(capsys):
    code, out, _ = run(["invariants", "--F", "r", "--jet", "0,0,1,1,1"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["W1"] + 0.375) <= 1e-12
    assert "S" not in row


def test_invariants_zero_field(capsys):
    code, out, _ = run(["invariants", "--F", "0", "--jet", "0,0,1,0,0"], capsys)
    row = json.loads(out)["rows"][0]
    assert row["W0"] == 0.0 and row["W1"] == 0.0


def test_invariants_random_deterministic(capsys):
    argv = ["invariants", "--field", "EL", "--random", "5", "--seed", "3"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_invariants_without_jets_exits_1(capsys):
    code, _, err = run(["invariants", "--field", "EL"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_invariants_unknown_field_exits_1(capsys):
    code, _, err = run(["invariants", "--field", "XX", "--jet", "0,0,1,0,2"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_invariants_parse_error_exits_1(capsys):
    code, _, err = run(["invariants", "--F", "q^(1/2)", "--jet", "0,0,1,0,0"], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# family / linearize
# ---------------------------------------------------------------------------

def test_family_report(capsys):
    code, out, _ = run(
        ["family", "--sigma", "0", "--A", "1", "--B", "0", "--C", "1", "--D", "-1",
         "--verify", "100", "--t0", "1.5", "--t1", "2.5"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "parabolic"
    assert payload["singularities"] == []
    assert payload["verify"]["max_schwarzian_residual"] <= 1e-9
    assert payload["verify"]["max_ode_residual"] <= 1e-9


def test_family_degenerate_exits_1(capsys):
    code, _, err = run(["family", "--sigma", "0", "--A", "1", "--B", "0", "--C", "0", "--D", "0"], capsys)
    assert code == 1


def test_family_jet_at(capsys):
    code, out, _ = run(["family", "--sigma", "2", "--jet-at", "0.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    tan, sec2 = math.tan(0.5), 1.0 + math.tan(0.5) ** 2
    want = [0.5, tan, sec2, 2.0 * tan * sec2, 2.0 * sec2 * (1.0 + 3.0 * tan ** 2)]
    assert payload["jet"] == pytest.approx(want, rel=1e-13)
    assert abs(payload["schwarzian"] - 2.0) <= 1e-12


def test_family_jet_at_pole_exits_1(capsys):
    code, _, err = run(["family", "--sigma", "2", "--jet-at", "1.5707963267948966"], capsys)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("extra", [[], ["--verify", "3"]], ids=["jet-at", "jet-at-and-verify"])
def test_family_jet_that_overflows_is_one_error_line(extra, capsys):
    # u = beta/delta overflows at t = 0.5; numpy warnings are errors here, so
    # the one line on stderr also shows that no warning came before it
    argv = ["family", "--sigma", "2", "--A", "1e308", "--D", "1e-308", "--jet-at", "0.5", *extra]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    t = "0.0" if extra else "0.5"  # --verify reads the window [0, 1] first
    assert err == f"error: the family member leaves the float range at t = {t}\n"


W_OVERFLOWS = "W0 or W1 overflows or is not finite at the jet [0.5, 0.0, 1.0, 3.0, 5.0]"


@pytest.mark.parametrize("argv, message", [
    # a ufunc at a float gives a Python float, which overflows to inf silently
    pytest.param(["invariants", "--F", "exp(t)*1e308*r", "--jet", "0.5,0,1,3,5"], W_OVERFLOWS, id="invariants-exp"),
    pytest.param(["invariants", "--F", "sin(p)*1e308*r*r", "--jet", "0.5,0,1,3,5"], W_OVERFLOWS, id="invariants-sin"),
    pytest.param(["invariants", "--F", "exp(u)*1e300*q*q", "--jet", "0.5,0,1,3,5"], W_OVERFLOWS,
                 id="invariants-exp-of-u"),
    # an expression's batch reads run with numpy's overflow and invalid warnings off
    pytest.param(["variation", "--u", "t + 1e-300*sin(1e300*t)", "--interval", "0,1", "--n", "1"],
                 "quadrature over [0, 1]: the integrand is not finite on the panel [0.444209, 0.783841] (abserr nan)",
                 id="variation-sin-of-a-huge-argument"),
    pytest.param(["variation", "--u", "t + exp(700*t)*1e-300", "--interval", "0,1", "--n", "1"],
                 "quadrature over [0, 0.05]: the integrand is not finite on the panel [0, 0.05] (abserr nan)",
                 id="variation-exp-derivatives-overflow"),
    pytest.param(["variation", "--u", "t + 1e200*t^2*1e200", "--interval", "0,1", "--n", "1"],
                 "curve expr:t + 1e+200*t^2*1e+200 is not finite at t = 0.01", id="variation-curve-overflows"),
    # a Python float's power raises OverflowError, which is refused by name
    pytest.param(["linearize", "--F", "exp(700*p)^2*r", "--base", "line", "--t", "0"],
                 "1.0142320547350045e+304^2 overflows the float range", id="linearize-power-of-exp-overflows"),
    pytest.param(["linearize", "--F", "(1e200*p)^2*r", "--base", "line", "--t", "0"],
                 "1e+200^2 overflows the float range", id="linearize-power-overflows"),
    # a negative number with an exponent is a value, not a flag
    pytest.param(["linearize", "--F", "(1e200*p)^2*r", "--base", "line", "--t", "-1e-3"],
                 "1e+200^2 overflows the float range", id="linearize-t-negative-with-exponent"),
    pytest.param(["family", "--sigma", "-1e-3", "--A", "1e308", "--D", "1e-308", "--jet-at", "0.5"],
                 "the family member leaves the float range at t = 0.5", id="family-sigma-negative-with-exponent"),
    pytest.param(["invariants", "--F", "(1e200)^2*r", "--jet", "0,0,1,0,0"],
                 "1e+200^2 overflows the float range", id="invariants-constant-power-overflows"),
])
def test_float_overflow_is_one_error_line(argv, message, capsys):
    # numpy warnings are errors here, so the one line on stderr also shows
    # that no warning came before it
    with within_5_s():
        code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_linearize_table(capsys):
    code, out, _ = run(["linearize", "--field", "EL", "--base", "exp", "--t", "0.3"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["a1"] - 2.0) <= 1e-10
    assert abs(row["a2"] + 5.0) <= 1e-10
    assert abs(row["a3"] - 4.0) <= 1e-10


def test_linearize_named_bases(capsys):
    code, out, _ = run(["linearize", "--base", "line", "--t", "0.9"], capsys)
    row = json.loads(out)["rows"][0]
    assert (row["a1"], row["a2"], row["a3"]) == (0.0, 0.0, 0.0)


def test_linearize_base_json_matches_named_base(capsys):
    argv = ["linearize", "--t", "0.3", "--base"]
    _, named, _ = run(argv + ["exp"], capsys)
    code, given, _ = run(argv + ['{"A":1,"B":0,"C":0,"D":1,"sigma":-0.5}'], capsys)
    assert code == 0
    assert json.loads(given)["rows"] == json.loads(named)["rows"]


# ---------------------------------------------------------------------------
# variation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("curve", [
    ["--mobius", '{"A":1,"B":0,"C":1,"D":-0.503,"sigma":0}', "--interval", "0,1"],
    ["--u", "1/(t-0.503)", "--interval", "0,1"],
    ["--u", "tan(t)", "--interval", "1,2"],
    ["--u", "1/t", "--interval", "-1e-3,1"],
], ids=["mobius", "simple-pole", "tan", "interval-negative-with-exponent"])
def test_variation_across_a_pole_exits_1(curve, capsys):
    code, out, err = run(["variation", *curve, "--n", "3", "--expect-critical"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "pole" in err


def test_variation_expect_critical_witness(capsys):
    code, out, _ = run(
        ["variation", "--u", "tan(t)", "--interval", "0.1,1", "--n", "6", "--expect-critical"],
        capsys,
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["witness"] is not None
    assert abs(payload["witness"]["delta"]) > 1e-3


def test_variation_mobius_is_critical(capsys):
    code, out, _ = run(
        ["variation", "--mobius", '{"A":2,"B":1,"C":1,"D":3,"sigma":0}',
         "--interval", "0,1", "--n", "5", "--expect-critical"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] is None
    assert payload["max_delta"] <= 1e-8


def test_variation_reports_a_failed_du_check_and_keeps_its_exit_code(capsys):
    # on [0, 1e11] the D_u check's difference stencil, of step 1e-4, cannot
    # resolve v' at the domain's scale, so its residual misses the 1e-9
    # gate; the report says so, and --expect-critical still reads only the
    # witness
    for flags in ([], ["--expect-critical"]):
        code, out, _ = run(["variation", "--u", "t", "--interval", "0,1e11", "--n", "1", *flags], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"] is None
        assert payload["max_du_residual"] > 1e-9
        assert payload["du_check_passed"] is False
        assert payload["endpoint_check_passed"] is True


def test_variation_deterministic_with_seed(capsys):
    argv = ["variation", "--u", "exp(2*t)", "--interval", "0,1", "--n", "3", "--seed", "9"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_log_env_var(monkeypatch, capsys):
    monkeypatch.setenv("SCHWARZ_LOG", "debug")
    code, _, _ = run(["linearize", "--base", "line", "--t", "0.0"], capsys)
    assert code == 0


def test_variation_requires_curve(capsys):
    code, _, err = run(["variation", "--interval", "0,1", "--n", "3"], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# input that must be refused without a traceback
# ---------------------------------------------------------------------------

# a non-finite number where the CLI reads it; the message must say so
NON_FINITE_NUMBERS = [
    pytest.param(["family", "--sigma", "2", "--jet-at", "nan"], id="family-jet-at-nan"),
    pytest.param(["family", "--sigma", "2", "--jet-at", "inf"], id="family-jet-at-inf"),
    pytest.param(["linearize", "--base", "line", "--t", "nan"], id="linearize-t-nan"),
    pytest.param(["linearize", "--base", "tan", "--t", "inf"], id="linearize-t-inf"),
    pytest.param(["invariants", "--jet", "nan,0,1,0,0"], id="invariants-jet-nan"),
    pytest.param(["invariants", "--jet", "0,0,inf,0,0"], id="invariants-jet-inf"),
]

# family JSON that does not parse; the message must quote it
INVALID_JSON = [
    pytest.param(["variation", "--mobius", "1,0,0,1,0", "--interval", "0,1"], id="mobius-json-invalid"),
    pytest.param(["linearize", "--base", "1,0", "--t", "0"], id="base-json-invalid"),
]


@pytest.mark.parametrize("argv", [
    pytest.param(["integrate", "--jet", "0,0,1,0,0", "--t-end", "nan"], id="integrate-t-end-nan"),
    pytest.param(["integrate", "--jet", "0,0,1,0,0", "--t-end", "inf"], id="integrate-t-end-inf"),
    pytest.param(["integrate", "--jet", "nan,0,1,0,0", "--t-end", "1"], id="integrate-jet-nan"),
    pytest.param(["variation", "--u", "t", "--interval", "nan,1"], id="variation-interval-nan"),
    pytest.param(["variation", "--u", "t", "--interval", "0,inf"], id="variation-interval-inf"),
    pytest.param(["variation", "--mobius", '{"A":1,"B":0,"C":0,"D":1,"sigma":1}', "--interval", "0,inf"],
                 id="variation-mobius-interval-inf"),
    pytest.param(["variation", "--u", "tan(t)", "--interval", "1,0.1"], id="variation-interval-reversed"),
    pytest.param(["family", "--sigma", "nan"], id="family-sigma-nan"),
    pytest.param(["family", "--sigma", "inf"], id="family-sigma-inf"),
    pytest.param(["family", "--sigma", "1", "--t0", "nan"], id="family-t0-nan"),
    pytest.param(["family", "--sigma", "1", "--t1", "inf"], id="family-t1-inf"),
    pytest.param(["variation", "--mobius", '{"A":1}', "--interval", "0,1"], id="mobius-json-missing-key"),
    pytest.param(["variation", "--mobius", "[1]", "--interval", "0,1"], id="mobius-json-not-an-object"),
    pytest.param(["linearize", "--base", '{"A":1,"B":0,"C":0,"D":1,"sigma":"x"}', "--t", "0"],
                 id="base-json-non-numeric"),
    pytest.param(["variation", "--u", "tan(t)", "--interval", "0.1,1", "--n", "0"], id="variation-n-0"),
    pytest.param(["variation", "--u", "exp(1000*t)", "--interval", "0,1", "--n", "1"], id="variation-exp-overflow"),
    pytest.param(["invariants", "--F", "exp(1000*p)", "--jet", "0,0,1,0,0"], id="invariants-exp-overflow"),
    # 3.2e8 poles of tan(t) in the window
    pytest.param(["family", "--sigma", "2", "--A", "1", "--B", "0", "--C", "0", "--D", "1", "--t0", "0", "--t1", "1e9"],
                 id="family-window-of-too-many-poles"),
    pytest.param(["integrate", "--jet=-1e308,0,1,0,-2", "--t-end=1e308"], id="integrate-span-overflows"),
    pytest.param(["integrate", "--jet", "0,0,1,1e200,0", "--t-end", "1"], id="integrate-F-infinite"),
    # w or k is 0, and the generator a constant
    pytest.param(["family", "--sigma=5e-324", "--B", "1", "--C", "1", "--D", "0"], id="family-sigma-halves-to-0"),
    pytest.param(["variation", "--u", "t", "--interval", "0,0.0003", "--n", "2"],
                 id="variation-domain-narrower-than-the-residual-stencil"),
    pytest.param(["variation", "--u", "t", "--interval", "0,1e160", "--n", "1"],
                 id="variation-domain-too-far-from-0-for-the-residual-stencil"),
    pytest.param(["family", "--sigma", "2", "--A", "1e308", "--D", "1e-308", "--jet-at", "0.5"],
                 id="family-jet-overflows"),
    pytest.param(["invariants", "--F", "1e200*r", "--jet", "0,0,1,0,0"], id="invariants-W0-overflows"),
    pytest.param(["invariants", "--F", "1e308*p", "--jet", "0,0,1,0,0"], id="invariants-W1-infinite"),
    pytest.param(["variation", "--u", "t", "--interval=-1e308,1e308", "--n", "1"], id="variation-grid-overflows"),
    pytest.param(["variation", "--mobius", '{"A":1,"B":0,"C":0,"D":1,"sigma":0}', "--interval=-1e308,1e308"],
                 id="variation-mobius-grid-overflows"),
    pytest.param(["invariants", "--F", "sin(1e308*10*p)", "--jet", "0,0,1,0,0"], id="invariants-sin-of-infinity"),
    pytest.param(["linearize", "--F", "exp(1e308*10*p)", "--base", "line", "--t", "0"],
                 id="linearize-exp-of-infinity"),
    pytest.param(["variation", "--u", "1e308*10*t", "--interval", "0.5,2", "--n", "1"], id="variation-curve-infinite"),
    pytest.param(["linearize", "--F", "1e308*10*p", "--base", "line", "--t", "0"], id="linearize-result-infinite"),
    *NON_FINITE_NUMBERS,
    *INVALID_JSON,
])
def test_bad_input_exits_1_without_traceback(argv, capsys):
    # an exception that main() does not turn into "error:" would reach here
    # as a traceback; a run that never returns is cut by the alarm
    with within_5_s():
        code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


# input nested deeper than Python's recursion limit, in each shape: parentheses
# fail near 250 levels, flat sums near 1000 terms
NESTED_5000 = [
    pytest.param(["variation", "--u", "(" * 5000 + "t" + ")" * 5000, "--interval", "0.1,0.2", "--n", "1"],
                 id="variation-u-parentheses"),
    pytest.param(["variation", "--u", "+".join(["t"] * 5000), "--interval", "0.1,0.2", "--n", "1"],
                 id="variation-u-sum"),
    pytest.param(["invariants", "--F=" + "+".join(["r"] * 5000), "--jet", "0,0,1,0,0"], id="invariants-F-sum"),
    pytest.param(["invariants", "--F=" + "-" * 5000 + "r", "--jet", "0,0,1,0,0"], id="invariants-F-unary-minus"),
]


@pytest.mark.parametrize("argv", NESTED_5000)
def test_input_nested_too_deeply_is_one_error_line(argv, capsys):
    with within_5_s():
        code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1


def test_variation_whose_curve_fails_at_compile_time_is_one_error_line(capsys):
    # ln(0-1) reads no variable, so it is evaluated, and refused, once
    code, out, err = run(["variation", "--u", "t + ln(0-1)", "--interval", "0.1,0.2", "--n", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: ln of non-positive value -1.0\n"


@pytest.mark.parametrize("argv", NON_FINITE_NUMBERS)
def test_non_finite_number_is_named(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert "is not finite" in err


@pytest.mark.parametrize("argv", INVALID_JSON)
def test_invalid_family_json_is_quoted(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: family JSON is not valid JSON")
    assert f"got {argv[2]}" in err


def test_integrate_span_that_overflows_is_named(capsys):
    # t_end and the jet are finite, but t_end - t is not
    code, _, err = run(["integrate", "--jet=-1e308,0,1,0,-2", "--t-end=1e308"], capsys)
    assert code == 1
    assert err.startswith("error: the run's span t_end - t = 1e+308 - -1e+308 is not finite")


def test_domain_narrower_than_the_residual_stencil_is_named(capsys):
    # the D_u check differences v at t +- 2h, h = 1e-4, inside the domain
    code, out, err = run(["variation", "--u", "t", "--interval", "0,0.0003", "--n", "2"], capsys)
    assert code == 1
    assert out == ""
    assert "domain [0, 0.0003] is narrower than the D_u check's stencil, 4h = 0.0004" in err


def test_domain_too_far_from_0_for_the_residual_stencil_is_named(capsys):
    # t - 2h ... t + 2h, h = 1e-4, all round to t at t = 1e160, so the D_u
    # check would read nothing there
    code, out, err = run(["variation", "--u", "t", "--interval", "0,1e160", "--n", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: domain [0, 1e+160] is too far from 0 for the D_u check's stencil: "
                          "t - 2h, t - h, t, t + h and t + 2h are not distinct at t = 1e+160, h = 0.0001")


def test_invariants_that_overflow_name_the_jet(capsys):
    code, out, err = run(["invariants", "--F", "1e200*r", "--jet", "0,0,1,0,0"], capsys)
    assert code == 1
    assert out == ""
    assert "W0 or W1 overflows or is not finite at the jet [0.0, 0.0, 1.0, 0.0, 0.0]" in err


def test_domain_whose_grid_overflows_is_named(capsys):
    code, _, err = run(["variation", "--u", "t", "--interval=-1e308,1e308", "--n", "1"], capsys)
    assert code == 1
    assert "got [-1e+308, 1e+308]" in err


@pytest.mark.parametrize("argv, message", [
    (["invariants", "--F", "sin(1e308*10*p)", "--jet", "0,0,1,0,0"],
     "sin, cos or tan of an infinite series value at t = 0.0"),
    (["variation", "--u", "sin(1e308*10*t)", "--interval", "0.5,2", "--n", "1"],
     "sin, cos or tan of an infinite series value at t = 0.5"),
    (["variation", "--u", "1e308*10*t", "--interval", "0.5,2", "--n", "1"],
     "curve expr:1e+308*10.0*t is not finite at t = 0.5"),
    # a1 = F_p = inf and a2 = F_q = nan: JSON has no such numbers
    (["linearize", "--F", "1e308*10*p", "--base", "line", "--t", "0"], "not JSON compliant"),
], ids=["invariants-sin", "variation-sin", "variation-curve", "linearize-json"])
def test_infinity_is_named_where_it_is_read(argv, message, capsys):
    # 1e308*10 is inf
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert message in err


def test_interval_of_three_values_is_named(capsys):
    code, _, err = run(["variation", "--u", "t", "--interval", "0,1,2"], capsys)
    assert code == 1
    assert "--interval must be t0,t1" in err


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def test_output_schemas_stable(capsys):
    """Golden field names for the machine-readable outputs."""
    code, out, _ = run(["invariants", "--field", "EL", "--jet", "0,0,1,0,2"], capsys)
    assert set(json.loads(out)["rows"][0]) == {"jet", "W0", "W1", "S"}
    code, out, _ = run(["family", "--sigma", "0", "--verify", "5"], capsys)
    payload = json.loads(out)
    assert {"config", "family", "class", "singularities", "verify"} <= set(payload)
    assert set(payload["family"]) == {"A", "B", "C", "D", "sigma"}
    code, out, _ = run(["linearize", "--base", "line", "--t", "0.5"], capsys)
    assert set(json.loads(out)["rows"][0]) == {"t", "a1", "a2", "a3"}
    code, out, _ = run(["variation", "--u", "t", "--interval", "0,1", "--n", "2"], capsys)
    assert {"u", "interval", "n", "max_delta", "witness"} <= set(json.loads(out))


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"t-end": 1.0, "tol": 1e-8, "jet": "0,0,1,0,2"}))
    code, out, _ = run(["integrate", "--config", str(conf), "--jet", "0,0,1,0,0", "--t-end", "2"], capsys)
    assert code == 0
    header = json.loads(out.splitlines()[0].removeprefix("# config: "))
    # flag wins over config; config fills what flags left unset
    assert header["jet"] == "0,0,1,0,0"
    assert header["t_end"] == 2.0
    assert header["tol"] == 1e-8


def test_explicit_flag_equal_to_its_default_beats_config(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"tol": 1e-8, "t": [0.1, 0.2], "unknown-key": 1}))
    code, out, _ = run(["integrate", "--jet", "0,0,1,0,2", "--t-end", "1", "--tol", "1e-10",
                        "--config", str(conf)], capsys)
    assert code == 0
    assert json.loads(out.splitlines()[0].removeprefix("# config: "))["tol"] == 1e-10
    # a repeatable flag given on the command line replaces the config's list
    code, out, _ = run(["linearize", "--base", "line", "--t", "0.5", "--config", str(conf)], capsys)
    assert code == 0
    assert [row["t"] for row in json.loads(out)["rows"]] == [0.5]


def test_config_file_not_an_object_exits_1(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text("[1]")
    code, out, err = run(["family", "--sigma", "0", "--config", str(conf)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "JSON object" in err


@pytest.mark.parametrize("value", [[1], "abc"], ids=["list", "not-a-number"])
def test_config_value_of_the_wrong_type_exits_1(tmp_path, capsys, value):
    # each config value goes through its flag's own type, as on the command line
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"tol": value}))
    code, out, err = run(["integrate", "--jet", "0,0,1,0,2", "--t-end", "1", "--config", str(conf)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "'tol'" in err and "Traceback" not in err


def test_usage_error_exits_1_not_2(capsys):
    # exit 2 means a singular stop; a flag argparse cannot read is bad input
    code, out, err = run(["integrate", "--jet", "0,0,1,0,2", "--t-end", "1", "--tol", "abc"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--tol" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["integrate", "--help"])
    assert info.value.code == 0
    assert "--t-end" in capsys.readouterr().out

"""The compiled Taylor program against the bits of the tree walk and the
series operators it replaced, float against batch, and the relaxed sweep of
formal_solution."""

import hashlib
import math
import re

import mpmath
import numpy as np
import pytest

from schwarzlab import symbolics
from schwarzlab.errors import EvalDomainError
from schwarzlab.schwarzian import EL_FIELD_TEXT, Jet4
from schwarzlab.symbolics import TaylorProgram, TaylorScalar, eval_scalar, formal_solution, parse, taylor_eval
from schwarzlab.variation import BumpFn

# One expression per node kind: + - * / with a constant or t on either side,
# integer powers, unary minus and every function.  u is a general series.
NODE_KINDS = [
    "u + 2.5", "2.5 + u", "u + t", "t + u",
    "u - 0.75", "0.75 - u", "u - t", "t - u",
    "u*1.5", "1.5*u", "u*t", "t*u",
    # the batch's negative coefficients times 5e-324 underflow to -0.0, and
    # a product's coefficient is 0.0 + that, +0.0
    "u*5e-324",
    "u/1.5", "1.5/u", "u/t", "t/u",
    "u^2", "u^3", "u^-2", "-u",
    "sin(u)", "cos(u)", "tan(u)", "exp(u)", "ln(u)",
]
UFUNC_KINDS = {"sin(u)", "cos(u)", "tan(u)", "exp(u)", "ln(u)"}

# u at a float, with a 0.0 and a -0.0 among its coefficients
PIN_T0 = 0.3
PIN_U = (1.2, -0.7, 0.0, 0.45, -0.0, 0.3)
# u on 20 nodes, built by arithmetic alone: coefficient 1 is 0 at some nodes,
# coefficient 2 at every node, and coefficients 3 and 4 are floats
PIN_TS = np.linspace(0.2, 0.8, 20)

# formal_solution at order 6: the EL field, and a field whose sin, exp and ln
# read the jet's own q, t and u
PIN_FIELDS = {
    "EL": (EL_FIELD_TEXT, (0.1, 0.2, 1.3, -0.4, 0.7)),
    "ufuncs": ("sin(q)*exp(t) - ln(u)*p^-2 + r*q", (0.25, 1.4, 0.9, -0.6, 0.35)),
}


# (center, radius, amplitude): a negative and a zero amplitude among them
PIN_BUMPS = [(0.5, 0.3, 0.8), (-1.25, 0.05, -2.0), (3.0, 1.7, 1.0), (0.2, 0.1, 0.0), (1e3, 2.5, 1e-3)]


def _batch_u():
    c1 = 0.5 - PIN_TS
    c1[::4] = 0.0
    return (1.0 + 0.25 * PIN_TS * PIN_TS, c1, np.zeros(20), 0.45, -0.0, PIN_TS * PIN_TS * PIN_TS)


def _digest(coeffs) -> str:
    """sha256 of the repr of every coefficient at every point."""
    text = "\n".join(repr(float(x)) for c in coeffs for x in np.ravel(c))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _kind_digests(e):
    at_float = taylor_eval(e, {"t": TaylorScalar.variable(PIN_T0, 5), "u": TaylorScalar(PIN_T0, PIN_U)})
    on_batch = taylor_eval(e, {"t": TaylorScalar.variable(PIN_TS, 5), "u": TaylorScalar(PIN_TS, _batch_u())})
    return _digest(at_float.coeffs), _digest(np.broadcast_to(c, PIN_TS.shape) for c in on_batch.coeffs)


def _field_digest(name):
    text, jet = PIN_FIELDS[name]
    env = formal_solution(parse(text), jet, 6)
    return _digest(env[v].coeffs for v in "tupqr")


def _bump_digest():
    """BumpFn.derivs of each pinned bump at floats (the centre, inside,
    on the edge of the support and outside it) and on a 20-node array that
    reaches past both ends."""
    rows = []
    for center, radius, amplitude in PIN_BUMPS:
        bump = BumpFn(center, radius, amplitude)
        ts = center + radius * np.linspace(-1.2, 1.2, 20)
        for t in [center, center + 0.999 * radius, center - 0.5 * radius, center + radius, *ts.tolist()]:
            rows.extend(bump.derivs(t))
        rows.extend(bump.derivs(ts))
    return _digest(rows)


def _ufunc_digest():
    """The bits of numpy's sin, cos, exp and log at every argument the pinned
    cases pass them, at floats and on the batch's array."""
    u0 = _batch_u()[0]
    t, u, _, q, _ = PIN_FIELDS["ufuncs"][1]
    args = {np.sin: q, np.cos: q, np.exp: t, np.log: u}
    return _digest([f(x) for f, arg in args.items() for x in [PIN_U[0], arg, *u0.tolist(), u0]])


# Recorded from the tree walk that the compiled program replaced.  The
# ufunc cases hold only where numpy's kernels give the bits they gave then:
# numpy picks its exp and log kernels by CPU feature.
PINNED_UFUNCS = "5db1f1e194057bb9"
PINNED_KINDS = {
    "u + 2.5": ("0eb22f9694f87900", "cf50a7e953063abf"),
    "2.5 + u": ("0eb22f9694f87900", "cf50a7e953063abf"),
    "u + t": ("2afb7d013895bdac", "9fabad476182e689"),
    "t + u": ("2afb7d013895bdac", "9fabad476182e689"),
    "u - 0.75": ("2b5f3160b602e991", "6bcf2410cf653389"),
    "0.75 - u": ("63e2f3ed2373f36a", "d4fa9f3badf5958b"),
    "u - t": ("7a801dc657a53282", "d077c91be8ab1399"),
    "t - u": ("2f095aad7172e99a", "fe0564f895364136"),
    "u*1.5": ("1fbdefac56ba3483", "7da38e223fbfd017"),
    "1.5*u": ("1fbdefac56ba3483", "7da38e223fbfd017"),
    "u*t": ("0ce0c3de4cbaf595", "95a6f779bbcbb165"),
    "t*u": ("0ce0c3de4cbaf595", "95a6f779bbcbb165"),
    "u*5e-324": ("b09743b37f3735e0", "42948bdb1785776a"),
    "u/1.5": ("a21aafc88bda5ba8", "dc77c1d4b140a673"),
    "1.5/u": ("bfb995474b943be3", "c4e870d57e673b9e"),
    "u/t": ("d5475bf5a3098254", "a5ba76b658356268"),
    "t/u": ("d2b1d78e1d5b1944", "b25cba61ed5a396b"),
    "u^2": ("e67ac8deffd68b40", "0837a993b9198d66"),
    "u^3": ("ec55ad6f4b677939", "50735f251291e6bd"),
    "u^-2": ("e986af7b05e94802", "c47762fce2ab3515"),
    "-u": ("be914192787db79a", "7f0d430ad819369e"),
    "sin(u)": ("687387159c285d72", "34255b309ef060b9"),
    "cos(u)": ("31c164175fbb6289", "a7def7e4dd370d81"),
    "tan(u)": ("be125e7b18f9322a", "437478d7bbb2f4e8"),
    "exp(u)": ("ab02fceb42229459", "848b831faa217938"),
    "ln(u)": ("b1c58c44838c0b71", "552773f113de6052"),
}
PINNED_FIELDS = {
    "EL": "d8435ac8a32897f5",
    "ufuncs": "a9654184797a6b71",
}
# Recorded from BumpFn.derivs on TaylorScalar's operators, before its jets
# ran through a TaylorProgram
PINNED_BUMPS = "4b94982a78dbbf34"


def _skip_unless_recorded_kernels(ufuncs: bool):
    if ufuncs and _ufunc_digest() != PINNED_UFUNCS:
        pytest.skip("numpy's kernels here give other bits than those the pins were recorded with")


@pytest.mark.parametrize("text", NODE_KINDS)
def test_taylor_eval_keeps_its_bits_at_a_float_and_on_a_batch(text):
    _skip_unless_recorded_kernels(text in UFUNC_KINDS)
    e = parse(text)
    assert _kind_digests(e) == PINNED_KINDS[text]
    # t's series is 0 past coefficient 1, and a program that knows it skips
    # those terms with the same bits
    assert _kind_digests(TaylorProgram(e, {"t": 1, "u": math.inf})) == PINNED_KINDS[text]


@pytest.mark.parametrize("name", sorted(PIN_FIELDS))
def test_formal_solution_keeps_its_bits(name):
    _skip_unless_recorded_kernels(name == "ufuncs")
    assert _field_digest(name) == PINNED_FIELDS[name]


def test_bump_derivs_keep_their_bits():
    _skip_unless_recorded_kernels(True)
    assert _bump_digest() == PINNED_BUMPS


@pytest.mark.parametrize("text", NODE_KINDS)
def test_taylor_eval_batch_equals_the_scalar_path_for_every_node_kind(text):
    # the program's steps act element by element
    e = parse(text)
    u = _batch_u()
    got = taylor_eval(e, {"t": TaylorScalar.variable(PIN_TS, 5), "u": TaylorScalar(PIN_TS, u)})
    for i, t in enumerate(PIN_TS.tolist()):
        at = tuple(float(np.broadcast_to(c, PIN_TS.shape)[i]) for c in u)
        want = taylor_eval(e, {"t": TaylorScalar.variable(t, 5), "u": TaylorScalar(t, at)})
        assert [np.broadcast_to(c, PIN_TS.shape)[i] for c in got.coeffs] == list(want.coeffs)


def test_taylor_eval_of_a_program_equals_taylor_eval_of_its_expr():
    e = parse("sin(u)*t - 2.0*u^-2 + exp(0.5*t)/u")
    env = {"t": TaylorScalar.variable(PIN_T0, 5), "u": TaylorScalar(PIN_T0, PIN_U)}
    assert taylor_eval(TaylorProgram(e, {"t": 1, "u": math.inf}), env).coeffs == taylor_eval(e, env).coeffs


def test_formal_solution_calls_each_ufunc_once(monkeypatch):
    # one relaxed sweep computes each coefficient of sin(p) once: sin and
    # cos of coefficient 0 once, not once per pass
    calls = {}

    def counted(name, f):
        def call(x):
            calls[name] = calls.get(name, 0) + 1
            return f(x)
        return call

    monkeypatch.setattr(symbolics, "_UFUNCS", {name: counted(name, f) for name, f in symbolics._UFUNCS.items()})
    formal_solution(parse("sin(p)*r"), Jet4(0.3, 0.1, 0.8, -0.2, 0.5), 6)
    assert calls == {"sin": 1, "cos": 1}


@pytest.mark.parametrize("name", sorted(PIN_FIELDS))
def test_formal_solution_coefficients_do_not_depend_on_the_order(name):
    text, jet = PIN_FIELDS[name]
    low, high = formal_solution(parse(text), jet, 6), formal_solution(parse(text), jet, 9)
    # u through 6, and its derivatives through what order 6 fixes of them
    for v, valid in zip("upqr", (7, 6, 5, 4)):
        assert low[v].coeffs[:valid] == high[v].coeffs[:valid]


def test_zero_times_inf_is_the_scalar_path_nan_at_a_float_and_on_a_batch():
    # sin(t) is 0 at t = 0, and 0*inf is NaN: coefficient 0 is the float's
    # value, as the product skips no coefficient of sin(t), only those of the
    # constant past 0
    e = parse("sin(t)*(1e308*10)")
    assert math.isnan(eval_scalar(e, {"t": 0.0}))
    assert math.isnan(taylor_eval(e, {"t": TaylorScalar.variable(0.0, 3)}).coeffs[0])
    ts = np.array([0.0, -0.0, 0.0])
    with np.errstate(invalid="ignore"):
        on_batch = taylor_eval(e, {"t": TaylorScalar.variable(ts, 3)})
    assert np.isnan(on_batch.coeffs[0]).all()


def test_a_huge_power_compiles_into_few_steps():
    # binary powering: at most 2*log2(n) products, not n - 1
    program = TaylorProgram(parse("1+t^100000000"), {"t": 1})
    assert len(program._steps) <= 60


@pytest.mark.parametrize("n", [7, -5])
def test_power_series_match_mpmath(n):
    t0, order = 0.7, 9
    with mpmath.workdps(30):
        want = [float(c) for c in mpmath.taylor(lambda x: x**n, mpmath.mpf(t0), order)]
    for inputs in ({"t": 1}, {"t": math.inf}):
        got = TaylorProgram(parse(f"t^{n}"), inputs).run(t0, {"t": TaylorScalar.variable(t0, order).coeffs}, order)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_power_0_is_the_constant_1():
    assert taylor_eval(parse("t^0"), {"t": TaylorScalar.variable(0.4, 3)}).coeffs == (1.0, 0.0, 0.0, 0.0)


# A subexpression that reads no variable is evaluated once, at compile time;
# its refusal, and an unbound variable's, is raised where the walk meets it


def test_a_failing_constant_subexpression_raises_the_walks_message():
    with pytest.raises(EvalDomainError, match=re.escape("ln of non-positive value -1.0")):
        taylor_eval(parse("t + ln(0-1)"), {"t": TaylorScalar.variable(0.5, 3)})


def test_a_failing_left_operand_is_refused_before_a_failing_constant():
    with pytest.raises(EvalDomainError, match=re.escape("ln of a non-positive series value at t = -1.0")):
        taylor_eval(parse("ln(t) + ln(0-1)"), {"t": TaylorScalar.variable(-1.0, 3)})


@pytest.mark.parametrize("text", ["t/0", "t/(1-1)"])
@pytest.mark.parametrize("point", [0.5, np.linspace(0.1, 0.9, 5)], ids=["float", "batch"])
def test_division_by_a_constant_zero_is_refused(text, point):
    with pytest.raises(EvalDomainError, match="^division by zero$"):
        taylor_eval(parse(text), {"t": TaylorScalar.variable(point, 3)})


def test_an_unbound_variable_is_refused():
    with pytest.raises(EvalDomainError, match=re.escape("no value bound to variable 'u'")):
        taylor_eval(parse("t + u"), {"t": TaylorScalar.variable(0.5, 3)})

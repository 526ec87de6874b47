"""Parser, symbolic differentiation, Taylor arithmetic, and formal-solution
tests, including the module's pointwise-equality invariants."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_expr, random_jet, substitute
from schwarzlab.errors import EvalDomainError, ParseError, SeriesMismatchError
from schwarzlab.schwarzian import EL_FIELD_TEXT, Jet4
from schwarzlab.symbolics import (
    EXP_ARG_MAX,
    Add,
    Const,
    Div,
    Func,
    Mul,
    Pow,
    TaylorScalar,
    Var,
    differentiate,
    eval_scalar,
    fold,
    formal_solution,
    parse,
    taylor_eval,
)

EL = parse(EL_FIELD_TEXT)


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_el_field_structure():
    e = parse("-3*q^3/p^2 + 4*q*r/p")
    assert isinstance(e, Add)
    assert isinstance(e.left, Div) and isinstance(e.right, Div)


def test_parse_single_variable():
    assert parse("p") == Var("p")


def test_parse_rejects_non_integer_exponent():
    with pytest.raises(ParseError):
        parse("q^(1/2)")
    with pytest.raises(ParseError):
        parse("q^2.5")


def test_parse_rejects_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("p + x")
    assert err.value.position == 4


def test_parse_reports_syntax_error_position():
    with pytest.raises(ParseError):
        parse("3*(q+")
    with pytest.raises(ParseError):
        parse("2 3")


def test_parse_negative_exponent_and_whitespace():
    e = parse(" p ^ -2 ")
    assert e == Pow(Var("p"), -2)
    assert eval_scalar(e, {"p": 2.0}) == 0.25


def test_parse_precedence():
    assert eval_scalar(parse("2+3*4"), {}) == 14.0
    assert eval_scalar(parse("-2^2"), {}) == 4.0  # unary minus binds to the base
    assert eval_scalar(parse("2*q^2"), {"q": 3.0}) == 18.0


# ---------------------------------------------------------------------------
# printing round-trip
# ---------------------------------------------------------------------------

def test_round_trip_pointwise():
    rng = np.random.default_rng(42)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        e = random_expr(rng, depth=5)
        reparsed = parse(str(e))
        ok_points = 0
        for _ in range(10):
            env = random_jet(rng, 0.3, 2.0).as_dict()
            try:
                a = eval_scalar(e, env)
                b = eval_scalar(reparsed, env)
            except (EvalDomainError, OverflowError):
                continue
            if not math.isfinite(a) or abs(a) > 1e12:
                continue
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
            ok_points += 1
        if ok_points >= 3:
            checked += 1
    assert checked == 100


_leaf = st.one_of(
    st.sampled_from([Var(n) for n in ("t", "u", "p", "q", "r")]),
    st.floats(min_value=-3, max_value=3, allow_nan=False).map(lambda v: Const(round(v, 3))),
)


def _branch(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: Add(*ab)),
        st.tuples(children, children).map(lambda ab: Mul(*ab)),
        st.tuples(children, children).map(lambda ab: Div(*ab)),
        st.tuples(children, st.integers(-3, 3)).map(lambda bn: Pow(*bn)),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map(lambda na: Func(*na)),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf, _branch, max_leaves=12))
def test_round_trip_structural(e):
    # print -> parse -> print is a fixpoint
    text = str(e)
    assert str(parse(text)) == text


# ---------------------------------------------------------------------------
# differentiate
# ---------------------------------------------------------------------------

def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_differentiate_el_field_in_q():
    d = differentiate(EL, "q")
    rng = np.random.default_rng(0)
    for _ in range(20):
        j = random_jet(rng, 0.2, 5.0)
        expected = -9.0 * j.q ** 2 / j.p ** 2 + 4.0 * j.r / j.p
        assert _rel_close(eval_scalar(d, j), expected, 1e-12)


def test_differentiate_constant_direction():
    assert differentiate(parse("p"), "q") == Const(0.0)


def test_differentiate_quotient():
    d = differentiate(parse("4*q/p"), "p")
    rng = np.random.default_rng(1)
    for _ in range(20):
        j = random_jet(rng, 0.2, 5.0)
        assert _rel_close(eval_scalar(d, j), -4.0 * j.q / j.p ** 2, 1e-12)


def _fd_partial(e, env, var, h=1e-5):
    hi = dict(env)
    lo = dict(env)
    hi[var] += h
    lo[var] -= h
    return (eval_scalar(e, hi) - eval_scalar(e, lo)) / (2 * h)


def test_differentiate_matches_finite_differences():
    rng = np.random.default_rng(7)
    exprs = [EL]
    while len(exprs) < 51:
        exprs.append(random_expr(rng, depth=4))
    checked = 0
    for e in exprs:
        partials = {v: differentiate(e, v) for v in ("t", "u", "p", "q", "r")}
        points = 0
        tries = 0
        while points < 3 and tries < 40:
            tries += 1
            env = random_jet(rng, 0.3, 1.5).as_dict()
            try:
                if abs(eval_scalar(e, env)) > 1e3:
                    continue
                for v in partials:
                    sym = eval_scalar(partials[v], env)
                    fd = _fd_partial(e, env, v)
                    if abs(sym) > 1e4:
                        continue
                    assert _rel_close(sym, fd, 1e-6), f"{e} d/d{v}: {sym} vs {fd}"
            except (EvalDomainError, OverflowError):
                continue
            points += 1
        if points:
            checked += 1
    assert checked >= 45


# ---------------------------------------------------------------------------
# eval_scalar
# ---------------------------------------------------------------------------

def test_eval_el_at_flat_jet():
    assert eval_scalar(EL, Jet4(0, 0, 1, 0, 5)) == 0.0


def test_eval_el_at_unit_jet():
    assert eval_scalar(EL, Jet4(0, 0, 1, 1, 1)) == 1.0


def test_eval_projection():
    assert eval_scalar(parse("p"), Jet4(1, 2, 7, 3, 4)) == 7.0


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        eval_scalar(parse("1/q"), {"q": 0.0})
    with pytest.raises(EvalDomainError):
        eval_scalar(parse("ln(u)"), {"u": -1.0})
    with pytest.raises(EvalDomainError):
        eval_scalar(parse("tan(t)"), {"t": math.pi / 2})
    with pytest.raises(EvalDomainError):
        fold(parse("1/(2-2)"))
    with pytest.raises(EvalDomainError, match="sin of infinite argument inf"):
        eval_scalar(parse("sin(u)"), {"u": math.inf})
    with pytest.raises(EvalDomainError, match="exp of inf overflows the float range"):
        eval_scalar(parse("exp(u)"), {"u": math.inf})


# ---------------------------------------------------------------------------
# taylor_eval
# ---------------------------------------------------------------------------

def test_taylor_square_of_linear():
    env = {"p": TaylorScalar(0.0, (1.0, 1.0, 0.0))}
    assert taylor_eval(parse("p^2"), env).coeffs == (1.0, 2.0, 1.0)


def test_taylor_identity():
    out = taylor_eval(parse("t"), {"t": TaylorScalar.variable(0.0, 4)})
    assert out.coeffs == (0.0, 1.0, 0.0, 0.0, 0.0)


def test_taylor_exponential():
    out = taylor_eval(parse("exp(t)"), {"t": TaylorScalar.variable(0.0, 3)})
    assert np.allclose(out.coeffs, (1.0, 1.0, 0.5, 1.0 / 6.0), rtol=0, atol=1e-15)


def test_taylor_mismatch_errors():
    a = TaylorScalar.variable(0.0, 3)
    b = TaylorScalar.variable(1.0, 3)
    with pytest.raises(SeriesMismatchError):
        _ = a + b
    with pytest.raises(SeriesMismatchError):
        taylor_eval(parse("t+u"), {"t": a, "u": TaylorScalar.variable(0.0, 4)})


def test_taylor_division_by_zero_series():
    z = TaylorScalar.constant(0.0, 0.0, 3)
    with pytest.raises(EvalDomainError):
        _ = TaylorScalar.constant(1.0, 0.0, 3) / z


def test_taylor_consistency_against_symbolic_derivatives():
    """Coefficient k of taylor_eval equals (1/k!) times the k-th derivative
    of the composite, computed by repeated symbolic differentiation of a
    t-only substitution (the independent oracle)."""
    rng = np.random.default_rng(11)
    order = 4
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 120:
        attempts += 1
        e = random_expr(rng, depth=3)
        # polynomial environment in t
        env_exprs = {}
        for name in ("u", "p", "q", "r"):
            c = [float(round(x, 3)) for x in rng.uniform(-1, 1, size=3)]
            env_exprs[name] = parse(f"{c[0]!r} + {c[1]!r}*t + {c[2]!r}*t^2")
        t0 = float(round(rng.uniform(-0.5, 0.5), 3))
        tser = TaylorScalar.variable(t0, order)
        try:
            env = {name: taylor_eval(expr, {"t": tser}) for name, expr in env_exprs.items()}
            env["t"] = tser
            series = taylor_eval(e, env)
            composite = substitute(e, env_exprs)
            deriv = composite
            for k in range(order + 1):
                expected = eval_scalar(deriv, {"t": t0}) / math.factorial(k)
                assert abs(series.coeffs[k] - expected) <= 1e-12 * max(1.0, abs(expected)), (
                    f"{e} coeff {k}: {series.coeffs[k]} vs {expected}"
                )
                deriv = differentiate(deriv, "t")
        except (EvalDomainError, OverflowError):
            continue
        checked += 1
    assert checked == 20


# ---------------------------------------------------------------------------
# formal_solution
# ---------------------------------------------------------------------------

def test_formal_solution_line():
    out = formal_solution(parse("0"), (0, 0, 1, 0, 0), 6)
    assert out["u"].coeffs == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_formal_solution_exponential_jet():
    out = formal_solution(EL, (0, 1, 1, 1, 1), 5)
    expected = [1.0 / math.factorial(k) for k in range(6)]
    assert np.allclose(out["u"].coeffs, expected, rtol=0, atol=1e-15)


def test_formal_solution_tan_jet_fourth_coefficient():
    out = formal_solution(EL, (0, 0, 1, 0, 2), 4)
    assert out["u"].coeffs[4] == 0.0  # F(1, 0, 2) = 0


def test_formal_solution_requires_order_4():
    with pytest.raises(ValueError):
        formal_solution(EL, (0, 0, 1, 0, 0), 3)


def test_formal_solution_singular_at_p0():
    with pytest.raises(EvalDomainError):
        formal_solution(EL, (0, 0, 0, 1, 0), 6)


def test_formal_solution_residual():
    """Substituting the series back into u'''' - F leaves coefficients
    0..order-4 at the roundoff floor."""
    rng = np.random.default_rng(3)
    order = 8
    fields = [EL, parse("0"), parse("r"), parse("sin(q) + u"), parse("t*p - q^2")]
    for F in fields:
        for _ in range(10):
            j = random_jet(rng, 0.3, 3.0)
            env = formal_solution(F, j, order)
            env = dict(env)
            env["t"] = TaylorScalar.variable(j.t, order)
            f = taylor_eval(F, env)
            u4 = env["u"]
            # coefficients of u'''' from the u-series
            for k in range(order - 3):
                lhs = u4.coeffs[k + 4] * (k + 1) * (k + 2) * (k + 3) * (k + 4)
                scale = max(1.0, abs(f.coeffs[k]))
                assert abs(lhs - f.coeffs[k]) <= 1e-12 * scale


def test_formal_solution_derivative_series_consistency():
    out = formal_solution(EL, (0, 0, 1, 0, 2), 8)
    u = out["u"].coeffs
    for k in range(7):
        assert out["p"].coeffs[k] == (k + 1) * u[k + 1]


def test_taylor_termwise_derivative():
    s = taylor_eval(parse("exp(t)"), {"t": TaylorScalar.variable(0.0, 4)})
    d = s.deriv()
    assert d.order == 3
    assert np.allclose(d.coeffs, s.coeffs[:4], rtol=0, atol=1e-15)  # exp' = exp


# ---------------------------------------------------------------------------
# batches of series: one base point per element of an array
# ---------------------------------------------------------------------------

def _at_point(s, i):
    """The scalar series that element i of a batch stands for."""
    return TaylorScalar(float(s.base_point[i]),
                        tuple(float(c[i]) if isinstance(c, np.ndarray) else c for c in s.coeffs))


BATCH_OPS = {
    "add": lambda a, b, x: a + b,
    "sub": lambda a, b, x: a - b,
    "mul": lambda a, b, x: a * b,
    "div": lambda a, b, x: a / b,
    "pow": lambda a, b, x: a ** 3,
    "neg": lambda a, b, x: -a,
    "sin": lambda a, b, x: a.sin(),
    "cos": lambda a, b, x: a.cos(),
    "tan": lambda a, b, x: a.tan(),
    "exp": lambda a, b, x: a.exp(),
    "ln": lambda a, b, x: a.ln(),
    # float and array coefficients mixed, and floats lifted to series
    "mixed": lambda a, b, x: (2.0 - x * a) / (1.5 + x) + 0.5 * x ** 2,
}


@pytest.mark.parametrize("op", sorted(BATCH_OPS))
def test_batch_series_equals_the_scalar_series_at_every_point(op):
    rng = np.random.default_rng(11)
    n, order = 40, 4
    ts = rng.uniform(-1.0, 1.0, n)

    def batch():
        coeffs = [rng.uniform(0.5, 1.5, n)] + [rng.uniform(-1.0, 1.0, n) for _ in range(order)]
        coeffs[2][::3] = 0.0  # zero at some points only
        return TaylorScalar(ts, tuple(coeffs))

    a, b, x = batch(), batch(), TaylorScalar.variable(ts, order)
    got = BATCH_OPS[op](a, b, x)
    for i in range(n):
        want = BATCH_OPS[op](_at_point(a, i), _at_point(b, i), _at_point(x, i))
        assert [np.broadcast_to(c, (n,))[i] for c in got.coeffs] == list(want.coeffs)


@pytest.mark.parametrize("text, bad", [
    ("tan(t)", math.pi / 2),
    ("ln(t - 0.3)", 0.2),
    ("1/(t - 0.5)", 0.5),
    ("exp(1000*(t - 0.7))", 1.5),
], ids=["tan-pole", "ln-non-positive", "zero-divisor", "exp-overflow"])
def test_batch_domain_error_names_the_first_bad_point(text, bad):
    ts = np.array([0.9, 0.8, bad, 0.1])
    with pytest.raises(EvalDomainError, match=re.escape(f"t = {bad!r}")):
        taylor_eval(parse(text), {"t": TaylorScalar.variable(ts, 3)})


def test_batch_series_compare_and_hash_by_identity():
    # an elementwise == has no single truth value, so neither raises
    ts = np.linspace(0.0, 1.0, 5)
    a, b = TaylorScalar.variable(ts, 3), TaylorScalar.variable(ts.copy(), 3)
    assert a == a and a != b
    assert hash(a) == hash(a) != hash(b)


# ---------------------------------------------------------------------------
# numpy's ufuncs at a float and on an array
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sin", "cos", "exp", "ln"])
def test_eval_scalar_equals_the_series_value(name):
    # both paths call the same ufunc, so coefficient 0 is the float's value
    e = parse(f"{name}(t)")
    for t in np.random.default_rng(3).uniform(0.01, 40.0, 200).tolist():
        assert eval_scalar(e, {"t": t}) == taylor_eval(e, {"t": TaylorScalar.variable(t, 3)}).coeffs[0]


def test_exp_at_EXP_ARG_MAX_is_finite_and_refused_past_it():
    past = math.nextafter(EXP_ARG_MAX, math.inf)
    e = parse("exp(t)")
    assert math.isfinite(eval_scalar(e, {"t": EXP_ARG_MAX}))
    with pytest.raises(EvalDomainError, match=re.escape(f"exp of {past} overflows the float range")):
        eval_scalar(e, {"t": past})
    for base in (EXP_ARG_MAX, np.array([0.0, EXP_ARG_MAX])):
        s = taylor_eval(e, {"t": TaylorScalar.variable(base, 3)})
        assert all(np.isfinite(c).all() for c in s.coeffs)
    message = f"exp overflows the float range at t = {past}"
    for base in (past, np.array([0.0, past, math.inf])):
        with pytest.raises(EvalDomainError, match=re.escape(message)):
            taylor_eval(e, {"t": TaylorScalar.variable(base, 3)})


@pytest.mark.parametrize("name", ["sin", "cos", "tan"])
def test_trigonometric_of_infinity_is_refused(name):
    # 1e308*10 is inf, so the argument is -inf at -1 and +inf at 0.5 and 2
    e = parse(f"{name}(1e308*10*t)")
    with pytest.raises(EvalDomainError, match=f"{name} of infinite argument -inf"):
        eval_scalar(e, {"t": -1.0})
    message = "sin, cos or tan of an infinite series value at t = "
    with pytest.raises(EvalDomainError, match=re.escape(message + "-1.0")):
        taylor_eval(e, {"t": TaylorScalar.variable(-1.0, 3)})
    with pytest.raises(EvalDomainError, match=re.escape(message + "0.5")):
        taylor_eval(e, {"t": TaylorScalar.variable(np.array([0.5, 2.0]), 3)})

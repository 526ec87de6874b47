"""sympy as an independent oracle for the symbolic core: partial
derivatives of random expression trees, the coefficients of formal
power-series solutions, and the Wuenschmann invariants W0, W1, each
recomputed with sympy's own differentiation and compared at random jets."""

import math

import numpy as np
import pytest

from conftest import random_expr, random_jet
from schwarzlab.errors import EvalDomainError
from schwarzlab.ode_geometry import OdeField, el_field, w0, w1
from schwarzlab.symbolics import (
    Add, Const, Div, Func, Mul, Neg, Pow, Sub, Var, differentiate, eval_scalar, formal_solution,
)

sp = pytest.importorskip("sympy")

SYMBOLS = dict(zip("tupqr", sp.symbols("t u p q r")))
T, U, P, Q, R = SYMBOLS.values()
_FUNCS = {"sin": sp.sin, "cos": sp.cos, "tan": sp.tan, "exp": sp.exp, "ln": sp.log}
_BINARY = {Add: lambda a, b: a + b, Sub: lambda a, b: a - b,
           Mul: lambda a, b: a * b, Div: lambda a, b: a / b}


def to_sympy(e):
    """The sympy twin of an expression tree, built node by node."""
    if isinstance(e, Const):
        return sp.Float(e.value)
    if isinstance(e, Var):
        return SYMBOLS[e.name]
    if type(e) in _BINARY:
        return _BINARY[type(e)](to_sympy(e.left), to_sympy(e.right))
    if isinstance(e, Pow):
        return to_sympy(e.base) ** e.exponent
    if isinstance(e, Neg):
        return -to_sympy(e.arg)
    return _FUNCS[e.name](to_sympy(e.arg))


def at(expr, jet) -> float:
    return float(expr.subs({SYMBOLS[k]: v for k, v in jet.as_dict().items()}))


def close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def total_derivative(f, F):
    """d/dt of f(t, u, p, q, r) along u'''' = F."""
    return sp.diff(f, T) + P * sp.diff(f, U) + Q * sp.diff(f, P) + R * sp.diff(f, Q) + F * sp.diff(f, R)


def test_differentiate_matches_sympy():
    rng = np.random.default_rng(51)
    checked = 0
    for _ in range(30):
        e = random_expr(rng, depth=4)
        se = to_sympy(e)
        jet = random_jet(rng, 0.3, 1.5)
        try:
            if abs(eval_scalar(e, jet.as_dict())) > 1e3:
                continue
            for v in "tupqr":
                got = eval_scalar(differentiate(e, v), jet.as_dict())
                want = at(sp.diff(se, SYMBOLS[v]), jet)
                assert close(got, want, 1e-9), f"{e} d/d{v}: {got} vs {want}"
        except (EvalDomainError, OverflowError, ZeroDivisionError):
            continue
        checked += 1
    assert checked >= 20


def _linear_field(rng):
    """F = sum over v in (u, p, q, r) of (a + b t) v, with random a, b."""
    terms = [f"({a:.3f} + {b:.3f}*t)*{v}" for v, (a, b) in zip("upqr", rng.uniform(-1, 1, (4, 2)))]
    return OdeField.from_expression(" + ".join(terms))


def _fields():
    rng = np.random.default_rng(52)
    return [el_field()] + [_linear_field(rng) for _ in range(3)]


@pytest.mark.parametrize("field", _fields(), ids=["EL", "linear1", "linear2", "linear3"])
def test_formal_solution_and_invariants_match_sympy(field):
    order = 8
    F = to_sympy(field.F)
    # u^(4) = F, u^(k+4) = d^k F / dt^k along the flow
    derivs = [F]
    for _ in range(order - 4):
        derivs.append(total_derivative(derivs[-1], F))

    def d(f, k):
        for _ in range(k):
            f = total_derivative(f, F)
        return f

    fr, fq, fp = sp.diff(F, R), sp.diff(F, Q), sp.diff(F, P)
    w1_expr = (sp.Rational(9, 4) * fr * d(fr, 1) - sp.Rational(3, 2) * d(fr, 2) + 3 * d(fq, 1)
               - sp.Rational(3, 8) * fr ** 3 - sp.Rational(3, 2) * fq * fr - 3 * fp)
    w0_expr = (sp.Rational(11, 1600) * fr ** 4 - sp.Rational(9, 50) * fr ** 2 * d(fr, 1)
               - sp.Rational(1, 200) * fr ** 2 * fq + sp.Rational(21, 100) * d(fr, 1) ** 2
               + sp.Rational(1, 50) * d(fr, 1) * fq - sp.Rational(9, 100) * fq ** 2
               + sp.Rational(7, 20) * fr * d(fr, 2) - sp.Rational(1, 5) * d(fr, 3)
               + sp.Rational(3, 10) * d(fq, 2) - sp.Rational(1, 4) * fr * d(fq, 1))
    rng = np.random.default_rng(53)
    for _ in range(4):
        jet = random_jet(rng, 0.3, 3.0)
        coeffs = formal_solution(field.F, jet, order)["u"].coeffs
        want = [jet.u, jet.p, jet.q / 2.0, jet.r / 6.0]
        want += [at(g, jet) / math.factorial(k + 4) for k, g in enumerate(derivs)]
        for k, (got, ref) in enumerate(zip(coeffs, want)):
            assert close(got, ref, 1e-10), (k, got, ref)
        assert close(w1(field, jet), at(w1_expr, jet), 1e-9)
        assert close(w0(field, jet), at(w0_expr, jet), 1e-9)

"""Shared helpers for the test suite: seeded random jets, families with
pole-free windows, random expression trees, a symbolic substitution
utility used as an independent oracle, the exact jet of a family by mpmath
as the oracle of the closed form and the integrator, and a solver that
gives up."""

import math

import numpy as np
import pytest

from schwarzlab import el_ode
from schwarzlab.closed_form import MobiusFamily, family_singularities
from schwarzlab.errors import SchwarzLabError
from schwarzlab.schwarzian import Jet4
from schwarzlab.symbolics import Add, Const, Div, Expr, Func, Mul, Neg, Pow, Sub, Var
from schwarzlab.variation import ExprVariation, MobiusCurve


def random_jet(rng, p_lo=0.1, p_hi=10.0, scale=1.0):
    """Jet with |p| log-uniform in [p_lo, p_hi] and the other components
    uniform in [-scale, scale]."""
    p = rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(p_lo), np.log(p_hi)))
    return Jet4(
        float(rng.uniform(-1, 1)),
        float(rng.uniform(-scale, scale)),
        float(p),
        float(rng.uniform(-scale, scale)),
        float(rng.uniform(-scale, scale)),
    )


def random_family(rng, family_class):
    """Random Moebius family of the given class with |det| bounded away
    from zero."""
    sigma = {
        "hyperbolic": lambda: rng.uniform(-3.0, -0.1),
        "parabolic": lambda: 0.0,
        "elliptic": lambda: rng.uniform(0.1, 3.0),
    }[family_class]()
    while True:
        a, b, c, d = rng.uniform(-2, 2, size=4)
        if abs(a * d - b * c) >= 0.3:
            return MobiusFamily(float(a), float(b), float(c), float(d), float(sigma))


def nonsingular_window(family, lo=-2.0, hi=2.0, min_len=0.35, margin=0.2):
    """A pole-free subwindow of [lo, hi] with the given margin from every
    singular time, or None."""
    sing = family_singularities(family, lo - 0.5, hi + 0.5)
    edges = [lo - 0.5] + sing + [hi + 0.5]
    best = None
    for a, b in zip(edges[:-1], edges[1:]):
        a = max(a + margin, lo)
        b = min(b - margin, hi)
        if b - a >= min_len and (best is None or b - a > best[1] - best[0]):
            best = (a, b)
    return best


def random_mobius_curve(rng, family_class=None, max_len=1.0, max_ratio=50.0,
                        p_floor=0.2):
    """A healthy curve from a random family: pole-free window, |u'| at
    least p_floor, and the ratios |u''/u'|, |u'''/u'| bounded by max_ratio.
    The floors keep finite differences and quadrature well conditioned (the
    integrands carry inverse powers of u')."""
    classes = ("hyperbolic", "parabolic", "elliptic")
    while True:
        cls = family_class or classes[rng.integers(0, 3)]
        fam = random_family(rng, cls)
        window = nonsingular_window(fam)
        if window is None:
            continue
        t0, t1 = window
        t1 = min(t1, t0 + max_len)
        try:
            curve = MobiusCurve(fam, (t0, t1))
        except SchwarzLabError:
            continue
        jets = [curve.jet(t0 + (t1 - t0) * i / 16) for i in range(17)]
        if min(abs(j.p) for j in jets) < p_floor:
            continue
        if max(max(abs(j.q / j.p), abs(j.r / j.p)) for j in jets) > max_ratio:
            continue
        return curve


def random_polynomial_variation(rng, with_sin=True):
    coeffs = [float(x) for x in rng.uniform(-1, 1, size=4)]
    text = f"{coeffs[0]!r} + {coeffs[1]!r}*t + {coeffs[2]!r}*t^2 + {coeffs[3]!r}*t^3"
    if with_sin:
        text += f" + {float(rng.uniform(-1, 1))!r}*sin(t)"
    return ExprVariation(text)


# ---------------------------------------------------------------------------
# Random expression trees
# ---------------------------------------------------------------------------

_LEAF_VARS = ("t", "u", "p", "q", "r")


def random_expr(rng, depth, allow_div=True):
    """Random AST of depth <= depth over all five variables.  tan and ln are
    left out so random points are almost never singular; they are covered by
    dedicated tests."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return Var(_LEAF_VARS[rng.integers(0, 5)])
        return Const(float(round(rng.uniform(-3, 3), 3)))
    kind = rng.integers(0, 6 if allow_div else 5)
    if kind == 0:
        return Add(random_expr(rng, depth - 1, allow_div), random_expr(rng, depth - 1, allow_div))
    if kind == 1:
        return Sub(random_expr(rng, depth - 1, allow_div), random_expr(rng, depth - 1, allow_div))
    if kind == 2:
        return Mul(random_expr(rng, depth - 1, allow_div), random_expr(rng, depth - 1, allow_div))
    if kind == 3:
        return Pow(random_expr(rng, depth - 1, allow_div), int(rng.integers(2, 4)))
    if kind == 4:
        name = ("sin", "cos", "exp")[rng.integers(0, 3)]
        return Func(name, random_expr(rng, depth - 1, allow_div))
    return Div(random_expr(rng, depth - 1, allow_div), random_expr(rng, depth - 1, allow_div))


def substitute(e: Expr, mapping) -> Expr:
    """Replace variables by expression trees (used to build independent
    t-only composites in oracle computations)."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(substitute(e.left, mapping), substitute(e.right, mapping))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, mapping))
    if isinstance(e, Func):
        return Func(e.name, substitute(e.arg, mapping))
    raise TypeError(f"not an Expr: {e!r}")


def mobius_of_jet(jet: Jet4, a: float, b: float, c: float, d: float) -> Jet4:
    """The jet of (a*u + b)/(c*u + d) at the same point, by Taylor
    composition on the jet data."""
    from schwarzlab.symbolics import TaylorScalar, parse, taylor_eval

    u = TaylorScalar(jet.t, (jet.u, jet.p, jet.q / 2.0, jet.r / 6.0))
    s = taylor_eval(parse(f"({a!r}*u + {b!r})/({c!r}*u + {d!r})"), {"u": u})
    return Jet4(jet.t, s.coeffs[0], s.derivative(1), s.derivative(2), s.derivative(3))


def exact_derivatives(family, t, n=4):
    """u, u', ..., u^(n) of the family member at t: mpmath differentiates the
    composite (A g + B)/(C g + D) in g = e^{a t}, t or tan(w t) at 30 digits.
    Makes no call into closed_form, so it is an independent oracle."""
    mpmath = pytest.importorskip("mpmath")
    A, B, C, D, sigma = (mpmath.mpf(x) for x in (family.A, family.B, family.C, family.D, family.sigma))

    def u(x):
        if sigma < 0:
            g = mpmath.exp(mpmath.sqrt(-2 * sigma) * x)
        elif sigma == 0:
            g = x
        else:
            g = mpmath.tan(mpmath.sqrt(sigma / 2) * x)
        return (A * g + B) / (C * g + D)

    with mpmath.workdps(30):
        return [float(d) for d in mpmath.diffs(u, mpmath.mpf(t), n)]


def exact_jet(family, t):
    """The family's jet at t from the mpmath oracle."""
    return Jet4(t, *exact_derivatives(family, t, 3))


def max_rel_error(got: Jet4, want: Jet4) -> float:
    """max over u, p, q, r of |got - want| / max(1, |want|)."""
    return max(abs(getattr(got, n) - getattr(want, n)) / max(1.0, abs(getattr(want, n)))
               for n in "upqr")


@pytest.fixture
def failing_solver(monkeypatch):
    """el_ode's Taylor steps made to land on t = 0.7 and fail there: a step
    that would pass 0.7 ends on it, and one from 0.7 on has values of NaN."""
    taylor_step = el_ode._taylor_step

    def failing(y, t, order, inner):
        polys, h = taylor_step(y, t, order, inner)
        if t >= 0.7:
            return tuple([math.nan] * len(c) for c in polys), h
        return polys, min(h, 0.7 - t)

    monkeypatch.setattr(el_ode, "_taylor_step", failing)

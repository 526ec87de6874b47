"""Expression trees, symbolic differentiation, and truncated Taylor arithmetic.

This is the computational substrate for the rest of the package.  The same
five-variable expression trees (over t, u, p, q, r) are evaluated in two
modes: plain floats, and truncated power series.  Series evaluation along a
formal ODE solution is how every total derivative in the package is computed,
so there is no finite-difference noise anywhere in the invariant formulas.

numpy's ufuncs evaluate exp, ln, sin, cos and tan on every path: at a float,
in a series at a float, and in a batch.  numpy gives the same bits for a
float as for the same float inside an array, so a batch equals the float
path; the test suite's test_batch_derivs_equal_the_scalar_path and
test_batch_series_equals_the_scalar_series_at_every_point guard that.  At a
float a ufunc returns np.float64, a float with the same bits.  An argument
outside a function's domain raises EvalDomainError before the ufunc runs.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from numbers import Real
from typing import Mapping, Union

import numpy as np

from .errors import EvalDomainError, ParseError, SeriesMismatchError

VARIABLES = ("t", "u", "p", "q", "r")
FUNCTIONS = ("sin", "cos", "tan", "exp", "ln")

# |cos| below this counts as a tan pole.
TAN_POLE_TOL = 1e-12
# The largest float whose exp is finite: exp of the next float overflows.
EXP_ARG_MAX = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# Truncated Taylor series
# ---------------------------------------------------------------------------

def first_where(mask, points):
    """The first point where mask holds, or None.  mask is a bool at a float
    point, or a bool array over an array of points (a batch)."""
    if isinstance(mask, np.ndarray):
        if not mask.any():
            return None
        return float(np.broadcast_to(points, mask.shape)[mask.argmax()])
    return points if mask else None


def _same_point(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@dataclass(frozen=True, eq=False)
class TaylorScalar:
    """Truncated power series about ``base_point``.

    ``coeffs[k]`` holds (1/k!) * (k-th derivative at the base point), so a
    series represents sum_k coeffs[k] * (t - base_point)**k up to the stored
    order.  Instances are immutable; every operation returns a new series.
    Arithmetic between two series requires equal base point and order.

    A batch of series, one per point of an array of base points, has that
    array as its base point and coefficients that are floats or arrays of
    the same shape.  Every operation then acts element by element with the
    scalar sequence of floating-point operations, and the same numpy ufunc,
    so each element equals the series computed at that point alone.  A
    domain error at any point raises EvalDomainError naming the first such
    t.  Series compare and hash by identity, as an elementwise == on a batch
    has no single truth value.
    """

    base_point: float
    coeffs: tuple

    # ndarray <op> series defers to the series, instead of making an object array
    __array_ufunc__ = None

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value: float, base_point: float, order: int) -> "TaylorScalar":
        return cls(base_point, (float(value),) + (0.0,) * order)

    @classmethod
    def variable(cls, base_point: float, order: int) -> "TaylorScalar":
        """The series of t itself about base_point (a float, or an array of
        points for a batch)."""
        if not isinstance(base_point, np.ndarray):
            base_point = float(base_point)
        if order < 1:
            return cls(base_point, (base_point,))
        return cls(base_point, (base_point, 1.0) + (0.0,) * (order - 1))

    def derivative(self, k: int) -> float:
        """k-th derivative at the base point (k! * coeffs[k])."""
        return math.factorial(k) * self.coeffs[k]

    def deriv(self) -> "TaylorScalar":
        """Termwise derivative; the order drops by one."""
        c = self.coeffs
        return TaylorScalar(self.base_point, tuple((k + 1) * c[k + 1] for k in range(len(c) - 1)))

    def _refuse(self, mask, message: str) -> None:
        """Raise EvalDomainError with message at the first point where mask holds."""
        t = first_where(mask, self.base_point)
        if t is not None:
            raise EvalDomainError(f"{message} at t = {t}")

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other) -> "TaylorScalar":
        if isinstance(other, TaylorScalar):
            base = other.base_point
            if (base is not self.base_point and not _same_point(base, self.base_point)
                    or len(other.coeffs) != len(self.coeffs)):
                raise SeriesMismatchError(
                    f"series mismatch: base {self.base_point}/{other.base_point}, "
                    f"order {self.order}/{other.order}"
                )
            return other
        if isinstance(other, Real):
            return TaylorScalar.constant(float(other), self.base_point, self.order)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return TaylorScalar(self.base_point, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return TaylorScalar(self.base_point, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return TaylorScalar(self.base_point, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        b = o.coeffs
        n = len(b) - 1
        out = [0.0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            # zero is a bool for a float and an array for a batch, which skips
            # a coefficient only where it is 0 at every point; where it is 0
            # at some, its terms add +-0 to a sum that is never -0, which for
            # finite b changes nothing, as skipping does
            zero = a == 0.0
            if zero is True or (zero is not False and zero.all()):
                continue
            for j in range(n - i + 1):
                out[i + j] += a * b[j]
        return TaylorScalar(self.base_point, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        b = o.coeffs
        self._refuse(b[0] == 0.0, "series division by a series with zero constant term")
        n = self.order
        h = [0.0] * (n + 1)
        for k in range(n + 1):
            # acc = acc - ..., not -=, which would write into an array coefficient
            acc = self.coeffs[k]
            for j in range(k):
                acc = acc - h[j] * b[k - j]
            h[k] = acc / b[0]
        return TaylorScalar(self.base_point, tuple(h))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return TaylorScalar.constant(1.0, self.base_point, self.order)
        if n < 0:
            return (TaylorScalar.constant(1.0, self.base_point, self.order) / self) ** (-n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # -- elementary functions (standard power-series recurrences) ----------
    # Sums run left to right in a plain loop, as builtin sum() on floats
    # compensates its rounding from Python 3.12 on and on arrays does not.

    def exp(self) -> "TaylorScalar":
        g = self.coeffs
        n = self.order
        self._refuse(g[0] > EXP_ARG_MAX, "exp overflows the float range")
        h = [0.0] * (n + 1)
        h[0] = np.exp(g[0])
        for m in range(1, n + 1):
            acc = 0.0
            for j in range(1, m + 1):
                acc += j * g[j] * h[m - j]
            h[m] = acc / m
        return TaylorScalar(self.base_point, tuple(h))

    def ln(self) -> "TaylorScalar":
        g = self.coeffs
        self._refuse(g[0] <= 0.0, "ln of a non-positive series value")
        n = self.order
        h = [0.0] * (n + 1)
        h[0] = np.log(g[0])
        for m in range(1, n + 1):
            acc = g[m]
            for j in range(1, m):
                acc = acc - (j / m) * h[j] * g[m - j]
            h[m] = acc / g[0]
        return TaylorScalar(self.base_point, tuple(h))

    def _sin_cos(self):
        g = self.coeffs
        self._refuse(abs(g[0]) == math.inf, "sin, cos or tan of an infinite series value")
        n = self.order
        s = [0.0] * (n + 1)
        c = [0.0] * (n + 1)
        s[0], c[0] = np.sin(g[0]), np.cos(g[0])
        for m in range(1, n + 1):
            acc_s = acc_c = 0.0
            for j in range(1, m + 1):
                acc_s += j * g[j] * c[m - j]
                acc_c += j * g[j] * s[m - j]
            s[m] = acc_s / m
            c[m] = -acc_c / m
        base = self.base_point
        return TaylorScalar(base, tuple(s)), TaylorScalar(base, tuple(c))

    def sin(self) -> "TaylorScalar":
        return self._sin_cos()[0]

    def cos(self) -> "TaylorScalar":
        return self._sin_cos()[1]

    def tan(self) -> "TaylorScalar":
        s, c = self._sin_cos()
        self._refuse(abs(c.coeffs[0]) < TAN_POLE_TOL, f"tan pole: |cos| < {TAN_POLE_TOL:g}")
        return s / c


Number = Union[float, TaylorScalar]


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes.  Nodes are immutable dataclasses."""

    def __str__(self) -> str:
        return _print(self, 0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self}>"


@dataclass(frozen=True, repr=False)
class Const(Expr):
    value: float


@dataclass(frozen=True, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, repr=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, repr=False)
class Func(Expr):
    name: str
    arg: Expr


def variables_of(e: Expr) -> set:
    """Names of the variables that actually occur in e."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Const):
        return set()
    if isinstance(e, (Add, Sub, Mul, Div)):
        return variables_of(e.left) | variables_of(e.right)
    if isinstance(e, Pow):
        return variables_of(e.base)
    if isinstance(e, (Neg, Func)):
        return variables_of(e.arg)
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Printing (precedence-aware; round-trips through parse)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Const) and e.value < 0:
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _print(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Const):
        s = repr(e.value)
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Func):
        s = f"{e.name}({_print(e.arg, 0)})"
    elif isinstance(e, Neg):
        s = "-" + _print(e.arg, _PREC_NEG + 1)
    elif isinstance(e, Pow):
        base = _print(e.base, _PREC_ATOM)
        if not isinstance(e.base, (Var, Func)) and not (isinstance(e.base, Const) and e.base.value >= 0):
            base = f"({_print(e.base, 0)})"
        s = f"{base}^{e.exponent}"
    elif isinstance(e, (Add, Sub)):
        op = " + " if isinstance(e, Add) else " - "
        # right operand gets parens when it is another sum, to keep the
        # printed tree structurally identical after reparsing
        s = _print(e.left, _PREC_ADD) + op + _print(e.right, _PREC_ADD + 1)
    elif isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        s = _print(e.left, _PREC_MUL) + op + _print(e.right, _PREC_MUL + 1)
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    if _prec(e) < parent_prec:
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# Parser (recursive descent over the grammar in the package docs)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])"
)
_INT_RE = re.compile(r"\d+$")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            kind = m.lastgroup
            self.toks.append((kind, m.group(), pos))
            pos = m.end()
        self.toks.append(("end", "", len(text)))
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def accept_op(self, *ops):
        kind, value, _ = self.peek()
        if kind == "op" and value in ops:
            return self.next()[1]
        return None


def parse(text: str) -> Expr:
    """Parse expression text into an Expr tree.

    Grammar (whitespace insignificant)::

        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := base ('^' integer)?
        base   := number | ident | '(' expr ')' | func '(' expr ')' | '-' base
        func   := sin | cos | tan | exp | ln
        ident  := t | u | p | q | r

    Exponents must be integer literals (optionally negative).
    """
    toks = _Tokens(text)
    e = _parse_expr(toks)
    kind, value, pos = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    return e


def _parse_expr(toks: _Tokens) -> Expr:
    e = _parse_term(toks)
    while True:
        op = toks.accept_op("+", "-")
        if op is None:
            return e
        rhs = _parse_term(toks)
        e = Add(e, rhs) if op == "+" else Sub(e, rhs)


def _parse_term(toks: _Tokens) -> Expr:
    e = _parse_factor(toks)
    while True:
        op = toks.accept_op("*", "/")
        if op is None:
            return e
        rhs = _parse_factor(toks)
        e = Mul(e, rhs) if op == "*" else Div(e, rhs)


def _parse_factor(toks: _Tokens) -> Expr:
    base = _parse_base(toks)
    if toks.accept_op("^") is None:
        return base
    sign = 1
    if toks.accept_op("-") is not None:
        sign = -1
    kind, value, pos = toks.next()
    if kind != "num" or _INT_RE.match(value) is None:
        raise ParseError("exponent must be an integer literal", pos)
    return Pow(base, sign * int(value))


def _parse_base(toks: _Tokens) -> Expr:
    kind, value, pos = toks.next()
    if kind == "num":
        return Const(float(value))
    if kind == "ident":
        if value in VARIABLES:
            return Var(value)
        if value in FUNCTIONS:
            if toks.accept_op("(") is None:
                raise ParseError(f"function {value!r} requires parentheses", toks.peek()[2])
            arg = _parse_expr(toks)
            if toks.accept_op(")") is None:
                raise ParseError("missing closing parenthesis", toks.peek()[2])
            return Func(value, arg)
        raise ParseError(f"unknown identifier {value!r}", pos)
    if kind == "op" and value == "(":
        e = _parse_expr(toks)
        if toks.accept_op(")") is None:
            raise ParseError("missing closing parenthesis", toks.peek()[2])
        return e
    if kind == "op" and value == "-":
        arg = _parse_base(toks)
        if isinstance(arg, Const):
            return Const(-arg.value)
        return Neg(arg)
    raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


# ---------------------------------------------------------------------------
# Evaluation (shared by floats and Taylor series)
# ---------------------------------------------------------------------------

_UFUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "ln": np.log}


def _apply_func(name: str, x: Number) -> Number:
    if isinstance(x, TaylorScalar):
        return getattr(x, name)()
    if name not in _UFUNCS:
        raise ValueError(f"unknown function {name!r}")
    if name in ("sin", "cos", "tan") and abs(x) == math.inf:
        raise EvalDomainError(f"{name} of infinite argument {x}")
    if name == "tan" and abs(np.cos(x)) < TAN_POLE_TOL:
        raise EvalDomainError(f"tan pole within tolerance at argument {x}")
    if name == "exp" and x > EXP_ARG_MAX:
        raise EvalDomainError(f"exp of {x} overflows the float range")
    if name == "ln" and x <= 0.0:
        raise EvalDomainError(f"ln of non-positive value {x}")
    return _UFUNCS[name](x)


def _evaluate(e: Expr, env: Mapping) -> Number:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalDomainError(f"no value bound to variable {e.name!r}") from None
    if isinstance(e, Add):
        return _evaluate(e.left, env) + _evaluate(e.right, env)
    if isinstance(e, Sub):
        return _evaluate(e.left, env) - _evaluate(e.right, env)
    if isinstance(e, Mul):
        return _evaluate(e.left, env) * _evaluate(e.right, env)
    if isinstance(e, Div):
        num = _evaluate(e.left, env)
        den = _evaluate(e.right, env)
        if not isinstance(den, TaylorScalar) and den == 0.0:
            raise EvalDomainError("division by zero")
        return num / den
    if isinstance(e, Pow):
        base = _evaluate(e.base, env)
        if not isinstance(base, TaylorScalar) and base == 0.0 and e.exponent < 0:
            raise EvalDomainError("zero raised to a negative power")
        return base ** e.exponent
    if isinstance(e, Neg):
        return -_evaluate(e.arg, env)
    if isinstance(e, Func):
        return _apply_func(e.name, _evaluate(e.arg, env))
    raise TypeError(f"not an Expr node: {e!r}")


def eval_scalar(e: Expr, env) -> float:
    """Evaluate e at a point.  env is a Jet4 or any mapping of variable
    names to floats."""
    if hasattr(env, "as_dict"):
        env = env.as_dict()
    return float(_evaluate(e, env))


def taylor_eval(e: Expr, env: Mapping) -> TaylorScalar:
    """Evaluate e on an environment of Taylor series.

    All series in env must share base point and order; the result's k-th
    derivative at the base point is the k-th t-derivative of e composed with
    the environment.
    """
    if not env:
        raise ValueError("taylor_eval requires a non-empty environment")
    series = list(env.values())
    base, order = series[0].base_point, series[0].order
    for s in series[1:]:
        if (s.base_point is not base and not _same_point(s.base_point, base)) or s.order != order:
            raise SeriesMismatchError("environment series disagree on base point or order")
    out = _evaluate(e, env)
    if not isinstance(out, TaylorScalar):
        out = TaylorScalar.constant(out, base, order)
    return out


# ---------------------------------------------------------------------------
# Symbolic differentiation with constant folding
# ---------------------------------------------------------------------------

def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


def fold(e: Expr) -> Expr:
    """Constant folding plus the obvious 0/1 identities.  No further
    simplification is attempted; correctness elsewhere is checked pointwise,
    not by canonical forms."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, (Add, Sub, Mul, Div)):
        a, b = fold(e.left), fold(e.right)
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(float(_evaluate(type(e)(a, b), {})))
        if isinstance(e, Add):
            if _is_zero(a):
                return b
            if _is_zero(b):
                return a
            return Add(a, b)
        if isinstance(e, Sub):
            if _is_zero(b):
                return a
            if _is_zero(a):
                return fold(Neg(b))
            return Sub(a, b)
        if isinstance(e, Mul):
            if _is_zero(a) or _is_zero(b):
                return Const(0.0)
            if _is_one(a):
                return b
            if _is_one(b):
                return a
            return Mul(a, b)
        if _is_zero(b):
            raise EvalDomainError("division by literal zero")
        if _is_zero(a):
            return Const(0.0)
        if _is_one(b):
            return a
        return Div(a, b)
    if isinstance(e, Pow):
        base = fold(e.base)
        if e.exponent == 0:
            return Const(1.0)
        if e.exponent == 1:
            return base
        if isinstance(base, Const):
            return Const(float(_evaluate(Pow(base, e.exponent), {})))
        return Pow(base, e.exponent)
    if isinstance(e, Neg):
        arg = fold(e.arg)
        if isinstance(arg, Const):
            return Const(-arg.value)
        if isinstance(arg, Neg):
            return arg.arg
        return Neg(arg)
    if isinstance(e, Func):
        arg = fold(e.arg)
        if isinstance(arg, Const):
            return Const(float(_apply_func(e.name, arg.value)))
        return Func(e.name, arg)
    raise TypeError(f"not an Expr node: {e!r}")


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Add):
        return Add(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Sub):
        return Sub(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Mul):
        return Add(Mul(_diff(e.left, var), e.right), Mul(e.left, _diff(e.right, var)))
    if isinstance(e, Div):
        num = Sub(Mul(_diff(e.left, var), e.right), Mul(e.left, _diff(e.right, var)))
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Pow):
        inner = _diff(e.base, var)
        return Mul(Mul(Const(float(e.exponent)), Pow(e.base, e.exponent - 1)), inner)
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, var))
    if isinstance(e, Func):
        inner = _diff(e.arg, var)
        g = e.arg
        if e.name == "sin":
            return Mul(Func("cos", g), inner)
        if e.name == "cos":
            return Neg(Mul(Func("sin", g), inner))
        if e.name == "tan":
            return Mul(Add(Const(1.0), Pow(Func("tan", g), 2)), inner)
        if e.name == "exp":
            return Mul(Func("exp", g), inner)
        if e.name == "ln":
            return Div(inner, g)
    raise TypeError(f"not an Expr node: {e!r}")


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative of e with respect to var,
    constant-folded."""
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}; expected one of {VARIABLES}")
    return fold(_diff(e, var))


# ---------------------------------------------------------------------------
# Formal power-series solutions of u'''' = F(t, u, u', u'', u''')
# ---------------------------------------------------------------------------

def _jet5(init):
    if hasattr(init, "t"):
        return (init.t, init.u, init.p, init.q, init.r)
    t0, u0, p0, q0, r0 = init
    return (float(t0), float(u0), float(p0), float(q0), float(r0))


def _padded_deriv(coeffs, k: int):
    """Coefficients of the k-th termwise derivative, zero-padded back to the
    original length.  The top k entries are unknown beyond truncation."""
    out = list(coeffs)
    for _ in range(k):
        out = [(i + 1) * out[i + 1] for i in range(len(out) - 1)] + [0.0]
    return tuple(out)


def flow_env(u_series: TaylorScalar) -> dict:
    """Full evaluation environment {t,u,p,q,r} induced by a u-series."""
    base, order = u_series.base_point, u_series.order
    return {
        "t": TaylorScalar.variable(base, order),
        "u": u_series,
        "p": TaylorScalar(base, _padded_deriv(u_series.coeffs, 1)),
        "q": TaylorScalar(base, _padded_deriv(u_series.coeffs, 2)),
        "r": TaylorScalar(base, _padded_deriv(u_series.coeffs, 3)),
    }


def formal_solution(F: Expr, init, order: int) -> dict:
    """Taylor series of the formal solution of u'''' = F through a jet.

    init supplies (t, u, u', u'', u''') either as a Jet4 or a 5-tuple; the
    jet fixes coefficients 0..3 of u.  Coefficient k of F reads u only
    through coefficient k+3, so one pass per coefficient fills the rest in a
    single sweep (Taylor propagation; Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., ch. 13): pass k evaluates F once on the series so
    far and sets coefficient k+4 from F's coefficient k, for k = 0 ..
    order-4.  Returns flow_env of the result, {t, u, p, q, r}, all at the
    requested order (the top entries of p, q, r are truncation-padded with
    zeros).

    Derivative series are valid through coefficient order-1, order-2, and
    order-3 respectively; F evaluated on the result is valid through
    coefficient order-4.  Coefficient k does not depend on the order.
    """
    if order < 4:
        raise ValueError(f"order must be at least 4, got {order}")
    t0, u0, p0, q0, r0 = _jet5(init)
    coeffs = [u0, p0, q0 / 2.0, r0 / 6.0] + [0.0] * (order - 3)
    for k in range(order - 3):
        f = taylor_eval(F, flow_env(TaylorScalar(t0, tuple(coeffs))))
        coeffs[k + 4] = f.coeffs[k] / ((k + 1) * (k + 2) * (k + 3) * (k + 4))
    return flow_env(TaylorScalar(t0, tuple(coeffs)))

"""Expression trees, symbolic differentiation, and truncated Taylor series.

This is the computational substrate for the rest of the package.  The same
five-variable expression trees (over t, u, p, q, r) are evaluated at floats
by a walk of the tree, and on truncated power series by a TaylorProgram: the
tree compiled once into straight-line steps over series slots, run one
coefficient at a time on floats or on equal-length arrays (a batch).  The
program is the package's one series engine.  Each step is its recurrence
(sum, product, quotient, exp, ln, sin/cos), and products skip only the
coefficients known to be 0: a constant's past coefficient 0, so a product
with it is one term a coefficient.  TaylorScalar is the series a run
returns, and derivatives is the one place that turns coefficients into
derivatives.  formal_solution fills the series of the formal solution of
u'''' = F in one relaxed sweep of F's program.  Series evaluation along that
solution is how every total derivative in the package is computed, so there
is no finite-difference noise anywhere in the invariant formulas.

numpy's ufuncs evaluate exp, ln, sin and cos, and tan as sin/cos, on every
path: at a float, in a series at a float, and in a batch.  numpy gives the
same bits for a float as for the same float inside an array, so a batch
equals the float path; the test suite's test_batch_derivs_equal_the_scalar_path
and test_batch_series_equals_the_scalar_series_at_every_point guard that.  At
a float a ufunc's np.float64 is turned into a Python float with the same bits
(_ufunc), so float-path arithmetic stays on Python floats: faster, and an
overflow there gives inf with no numpy warning.  An argument outside a
function's domain raises EvalDomainError before the ufunc runs.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
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


# tan is sin/cos, the series' own formula, so a float equals coefficient 0
_UFUNCS = {"sin": np.sin, "cos": np.cos, "tan": lambda x: np.sin(x) / np.cos(x), "exp": np.exp, "ln": np.log}


def _ufunc(name: str, x):
    """The numpy ufunc called name at x: an array at an array x, a Python float at a float."""
    y = _UFUNCS[name](x)
    return y if isinstance(x, np.ndarray) else float(y)


def _same_point(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _refuse(mask, message: str, points) -> None:
    """Raise EvalDomainError with message at the first point where mask holds."""
    t = first_where(mask, points)
    if t is not None:
        raise EvalDomainError(f"{message} at t = {t}")


def derivatives(coeffs, first: int = 0) -> list:
    """The derivatives k! * c of a series at its base point, from its
    coefficients c of index k = first, first + 1, ...  As 0! = 1! = 1, the
    first two are the coefficients themselves."""
    return [c if k < 2 else math.factorial(k) * c for k, c in enumerate(coeffs, first)]


@dataclass(frozen=True, eq=False)
class TaylorScalar:
    """Truncated power series about ``base_point``: what taylor_eval and
    formal_solution return, and what taylor_eval's environment binds.

    ``coeffs[k]`` holds (1/k!) * (k-th derivative at the base point), so a
    series represents sum_k coeffs[k] * (t - base_point)**k up to the stored
    order.  A batch of series, one per point of an array of base points, has
    that array as its base point and coefficients that are floats or arrays
    of the same shape.  Series compare and hash by identity, as an
    elementwise == on a batch has no single truth value.  All arithmetic on
    series is a TaylorProgram's.
    """

    base_point: float
    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

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
        return derivatives(self.coeffs[k : k + 1], k)[0]


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
# Evaluation at a point: the tree walk on floats
# ---------------------------------------------------------------------------

def _apply_func(name: str, x: float) -> float:
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
    return _ufunc(name, x)


def _evaluate(e: Expr, env: Mapping) -> float:
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
        if den == 0.0:
            raise EvalDomainError("division by zero")
        return num / den
    if isinstance(e, Pow):
        base = _evaluate(e.base, env)
        if base == 0.0 and e.exponent < 0:
            raise EvalDomainError("zero raised to a negative power")
        try:
            return base ** e.exponent
        except OverflowError:  # a Python float's power raises where a product gives inf
            raise EvalDomainError(f"{base}^{e.exponent} overflows the float range") from None
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


# ---------------------------------------------------------------------------
# Evaluation on series: an Expr compiled into a Taylor program
# ---------------------------------------------------------------------------

# The steps of a program.  Each is its recurrence: it appends coefficient k
# of its slot in the slot table v from coefficients 0..k of its operands and
# 0..k-1 of its own, so a series is filled one coefficient at a time, and at
# k = 0 it holds its function's refusals, read at the points a run is based
# at, and its ufunc.  Sums run left to right in a plain loop, as builtin
# sum() on floats compensates its rounding from Python 3.12 on and on arrays
# does not.  A product skips only the coefficients known to be 0 (past an
# operand's top): a sum from +0.0 is never -0, so a term that is +-0 changes
# none of its finite values when left out.

def _add_step(out: int, a: int, b: int):
    def step(v, k, points):
        v[out].append(v[a][k] + v[b][k])
    return step


def _sub_step(out: int, a: int, b: int):
    def step(v, k, points):
        v[out].append(v[a][k] - v[b][k])
    return step


def _neg_step(out: int, a: int):
    def step(v, k, points):
        v[out].append(-v[a][k])
    return step


def _mul_step(out: int, a: int, b: int, top_a, top_b):
    def step(v, k, points):
        x, y = v[a], v[b]
        acc = 0.0
        for i in range(k - top_b if k > top_b else 0, min(k, top_a) + 1):
            acc += x[i] * y[k - i]
        v[out].append(acc)
    return step


def _div_step(out: int, a: int, b: int):
    def step(v, k, points):
        x, y, h = v[a], v[b], v[out]
        if k == 0:
            _refuse(y[0] == 0.0, "series division by a series with zero constant term", points)
        # acc = acc - ..., not -=, which would write into an array coefficient
        acc = x[k]
        for j in range(k):
            acc = acc - h[j] * y[k - j]
        h.append(acc / y[0])
    return step


def _exp_step(out: int, g: int, top):
    def step(v, k, points):
        x, h = v[g], v[out]
        if k == 0:
            _refuse(x[0] > EXP_ARG_MAX, "exp overflows the float range", points)
            h.append(_ufunc("exp", x[0]))
            return
        acc = 0.0
        for j in range(1, min(k, top) + 1):
            acc += j * x[j] * h[k - j]
        h.append(acc / k)
    return step


def _ln_step(out: int, g: int):
    def step(v, k, points):
        x, h = v[g], v[out]
        if k == 0:
            _refuse(x[0] <= 0.0, "ln of a non-positive series value", points)
            h.append(_ufunc("ln", x[0]))
            return
        acc = x[k]
        for j in range(1, k):
            acc = acc - (j / k) * h[j] * x[k - j]
        h.append(acc / x[0])
    return step


def _sin_cos_step(s_out: int, c_out: int, g: int, top):
    def step(v, k, points):
        x, s, c = v[g], v[s_out], v[c_out]
        if k == 0:
            _refuse(abs(x[0]) == math.inf, "sin, cos or tan of an infinite series value", points)
            s.append(_ufunc("sin", x[0]))
            c.append(_ufunc("cos", x[0]))
            return
        acc_s = acc_c = 0.0
        for j in range(1, min(k, top) + 1):
            acc_s += j * x[j] * c[k - j]
            acc_c += j * x[j] * s[k - j]
        s.append(acc_s / k)
        c.append(-acc_c / k)
    return step


def _tan_pole_step(c: int):
    # tan(g) is sin(g)/cos(g); refuse it where |cos(g)| is below TAN_POLE_TOL
    def step(v, k, points):
        if k == 0:
            _refuse(abs(v[c][0]) < TAN_POLE_TOL, f"tan pole: |cos| < {TAN_POLE_TOL:g}", points)
    return step


def _fail_step(message: str):
    # every run starts at coefficient 0
    def step(v, k, points):
        raise EvalDomainError(message)
    return step


class TaylorProgram:
    """An Expr compiled once into straight-line code over series slots, and
    run one coefficient at a time (Taylor propagation; Griewank & Walther,
    *Evaluating Derivatives*, 2nd ed., ch. 13).

    inputs maps the name of each variable bound to a series when the
    program runs to the index past which that series is known to be 0:
    math.inf for any series, and 1 for t's own, (t, 1, 0, ...).  Each slot
    holds the coefficients of one subexpression, as a list that its
    step grows by one coefficient; equal subexpressions share a slot.  A
    subexpression that reads no variable is a float, evaluated once here as
    eval_scalar would.  Beside a series it is a constant series, known to be
    0 past coefficient 0, so a product with it costs one term, 0.0 + c*a[k],
    a coefficient; a product with t costs two.  Each step is its recurrence,
    and products skip only the coefficients known to be 0; a term left out
    changes no finite value of the sum (see the steps), so a program gives
    the bits of the full recurrences.  A coefficient that only happens to be
    0 is not skipped: times inf it gives NaN, as the float walk does.  Every
    refusal reads coefficient 0, so a run raises the first error that
    evaluating the tree node by node would meet.
    """

    def __init__(self, expr: Expr, inputs: Mapping):
        self.inputs = dict(inputs)
        # per slot, the index past which its coefficients are known to be 0
        self._tops = []
        self._steps = []
        self._constants = []
        self._bound = {}
        self._numbers = {}
        self.out = self._series(self._compile(expr))

    def _slot(self, top) -> int:
        self._tops.append(top)
        return len(self._tops) - 1

    def _numbered(self, key, make, top) -> int:
        """The slot of the step make(out), made once per key."""
        if key not in self._numbers:
            out = self._slot(top)
            self._steps.append(make(out))
            self._numbers[key] = out
        return self._numbers[key]

    def _constant(self, value: float) -> int:
        key = ("const", value.hex())
        if key not in self._numbers:
            self._numbers[key] = self._slot(0)
            self._constants.append((self._numbers[key], value))
        return self._numbers[key]

    def _series(self, x) -> int:
        return self._constant(x) if isinstance(x, float) else x

    def _compile(self, e: Expr):
        """The slot of e's series, or e's value where e reads no variable."""
        if not variables_of(e):
            try:
                return float(_evaluate(e, {}))
            except EvalDomainError as err:
                # raised where the walk meets it, after what precedes e
                self._steps.append(_fail_step(str(err)))
                return math.nan
        if isinstance(e, Var):
            if e.name not in self.inputs:
                self._steps.append(_fail_step(f"no value bound to variable {e.name!r}"))
                return self._constant(math.nan)
            if e.name not in self._bound:
                self._bound[e.name] = self._slot(self.inputs[e.name])
            return self._bound[e.name]
        if isinstance(e, (Add, Sub, Mul, Div)):
            a, b = self._compile(e.left), self._compile(e.right)
            if isinstance(e, Div) and isinstance(b, float) and b == 0.0:
                self._steps.append(_fail_step("division by zero"))
            return self._binary(type(e), self._series(a), self._series(b))
        if isinstance(e, Pow):
            x = self._compile(e.base)
            if e.exponent == 0:
                return self._constant(1.0)
            if e.exponent < 0:
                x = self._binary(Div, self._constant(1.0), x)
            # binary powering from the top bit: x*x, then (x*x)*x for |n| = 3
            out = x
            for bit in bin(abs(e.exponent))[3:]:
                out = self._binary(Mul, out, out)
                if bit == "1":
                    out = self._binary(Mul, out, x)
            return out
        if isinstance(e, Neg):
            a = self._compile(e.arg)
            return self._numbered(("neg", a), lambda out: _neg_step(out, a), self._tops[a])
        if isinstance(e, Func):
            return self._function(e.name, self._compile(e.arg))
        raise TypeError(f"not an Expr node: {e!r}")

    def _binary(self, kind, a: int, b: int) -> int:
        ta, tb = self._tops[a], self._tops[b]
        if kind is Add:
            return self._numbered(("+", a, b), lambda out: _add_step(out, a, b), max(ta, tb))
        if kind is Sub:
            return self._numbered(("-", a, b), lambda out: _sub_step(out, a, b), max(ta, tb))
        if kind is Mul:
            return self._numbered(("*", a, b), lambda out: _mul_step(out, a, b, ta, tb), ta + tb)
        # a quotient by a constant is 0 where its numerator is
        return self._numbered(("/", a, b), lambda out: _div_step(out, a, b), ta if tb == 0 else math.inf)

    def _function(self, name: str, g: int) -> int:
        top = self._tops[g]
        if name == "exp":
            return self._numbered(("exp", g), lambda out: _exp_step(out, g, top), math.inf)
        if name == "ln":
            return self._numbered(("ln", g), lambda out: _ln_step(out, g), math.inf)
        if name not in ("sin", "cos", "tan"):
            raise ValueError(f"unknown function {name!r}")
        if ("sin", g) not in self._numbers:
            s, c = self._slot(math.inf), self._slot(math.inf)
            self._steps.append(_sin_cos_step(s, c, g, top))
            self._numbers["sin", g], self._numbers["cos", g] = s, c
        if name != "tan":
            return self._numbers[name, g]
        s, c = self._numbers["sin", g], self._numbers["cos", g]
        self._steps.append(_tan_pole_step(c))
        return self._binary(Div, s, c)

    def start(self, points, inputs: Mapping, order: int) -> list:
        """The slot table of a run to the given order at points, a float or
        an array of points (a batch).  inputs maps each input's name to its
        coefficients, a sequence that may grow as the run goes."""
        v = [[] for _ in self._tops]
        zeros = [0.0] * order
        for slot, value in self._constants:
            v[slot] = [value, *zeros]
        for name, slot in self._bound.items():
            if name not in inputs:
                raise EvalDomainError(f"no value bound to variable {name!r}")
            v[slot] = inputs[name]
        return v

    def advance(self, v: list, k: int, points) -> None:
        """Compute coefficient k of every step, after coefficients 0..k-1."""
        for step in self._steps:
            step(v, k, points)

    def run(self, points, inputs: Mapping, order: int) -> list:
        """The output's coefficients 0..order at points (see start)."""
        v = self.start(points, inputs, order)
        for k in range(order + 1):
            self.advance(v, k, points)
        return list(v[self.out][: order + 1])


def taylor_eval(e: Union[Expr, TaylorProgram], env: Mapping) -> TaylorScalar:
    """Evaluate e on an environment of Taylor series.

    e is an Expr, compiled into a TaylorProgram on this call, or a program
    compiled before whose inputs env binds.  All series in env must share
    base point and order; the result's k-th derivative at the base point is
    the k-th t-derivative of e composed with the environment.
    """
    if not env:
        raise ValueError("taylor_eval requires a non-empty environment")
    series = list(env.values())
    base, order = series[0].base_point, series[0].order
    for s in series[1:]:
        if (s.base_point is not base and not _same_point(s.base_point, base)) or s.order != order:
            raise SeriesMismatchError("environment series disagree on base point or order")
    program = e if isinstance(e, TaylorProgram) else TaylorProgram(e, dict.fromkeys(env, math.inf))
    return TaylorScalar(base, tuple(program.run(base, {name: s.coeffs for name, s in env.items()}, order)))


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

# the inputs of a program of F: t and the jet u, p = u', q = u'', r = u'''
FLOW_INPUTS = {"t": 1, "u": math.inf, "p": math.inf, "q": math.inf, "r": math.inf}


def _jet5(init):
    if hasattr(init, "t"):
        return (init.t, init.u, init.p, init.q, init.r)
    t0, u0, p0, q0, r0 = init
    return (float(t0), float(u0), float(p0), float(q0), float(r0))


def _grow(flow: dict, x) -> None:
    """Append coefficient x to flow's u, and the coefficients of p, q and r,
    its termwise derivatives, that x fixes."""
    u, p, q, r = flow["u"], flow["p"], flow["q"], flow["r"]
    u.append(x)
    m = len(u) - 1
    if m >= 1:
        p.append(m * u[m])
    if m >= 2:
        q.append((m - 1) * p[m - 1])
    if m >= 3:
        r.append((m - 2) * q[m - 2])


def flow_sweep(program: TaylorProgram, init, order: int) -> tuple:
    """(t0, flow): the coefficients of the formal solution of u'''' = F
    through a jet, where program is F compiled with the inputs
    FLOW_INPUTS.  flow maps t to the series of t itself, u to
    coefficients 0..order, and p, q, r to those of u', u'', u''' that they
    fix: 0..order-1, 0..order-2 and 0..order-3.

    init supplies (t, u, u', u'', u''') either as a Jet4 or a 5-tuple; the
    jet fixes coefficients 0..3 of u.  Coefficient k of F reads u only
    through coefficient k+3, so one relaxed sweep fills the rest (van der
    Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput. 34, 2002):
    for k = 0 .. order-4, the program computes coefficient k of each of its
    steps, once, and coefficient k+4 of u is set from F's coefficient k.
    """
    if order < 4:
        raise ValueError(f"order must be at least 4, got {order}")
    t0, u0, p0, q0, r0 = _jet5(init)
    flow = {"t": list(TaylorScalar.variable(t0, order).coeffs), "u": [], "p": [], "q": [], "r": []}
    for x in (u0, p0, q0 / 2.0, r0 / 6.0):
        _grow(flow, x)
    v = program.start(t0, flow, order)
    f = v[program.out]
    for k in range(order - 3):
        program.advance(v, k, t0)
        _grow(flow, f[k] / ((k + 1) * (k + 2) * (k + 3) * (k + 4)))
    return t0, flow


def formal_solution(F: Expr, init, order: int) -> dict:
    """Taylor series of the formal solution of u'''' = F through a jet.

    F is compiled into a TaylorProgram on this call and run in one relaxed
    sweep (flow_sweep).  Returns {t, u, p, q, r}, all at the requested order:
    the top entries of p, q, r, past what the sweep fixes, are zeros.

    Derivative series are valid through coefficient order-1, order-2, and
    order-3 respectively; F evaluated on the result is valid through
    coefficient order-4.  Coefficient k does not depend on the order.
    """
    t0, flow = flow_sweep(TaylorProgram(F, FLOW_INPUTS), init, order)
    out = {"t": TaylorScalar.variable(t0, order)}
    for name in "upqr":
        c = flow[name]
        out[name] = TaylorScalar(t0, tuple(c) + (0.0,) * (order + 1 - len(c)))
    return out

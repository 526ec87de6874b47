"""Per-layer tracing from outside the program.

The tracer wraps the functions and methods that the schwarzlab modules import
from one another (and the two scipy solvers they call) by rebinding those
names in the module globals and classes.  No source file changes, and
uninstall() restores every original binding.

Each wrapped call is a span.  Spans are aggregated in memory per (phase,
name): call count, inclusive time, and self time, which is the inclusive time
minus the time of the spans nested inside it.  Counters (quad evaluations,
solver nfev and steps, raised errors) are kept the same way.  A name that a
later version of the program no longer defines is skipped; its metrics
read 0.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (phase, name) -> [calls, incl, self]
        self.counters = defaultdict(float)  # (phase, name) -> value
        self._child = []  # time of nested spans, one accumulator per open span
        self._undo = []

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, on_result=None, on_raise=None):
        def traced(*args, **kwargs):
            self._child.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if on_raise:
                    self.counters[(self.phase, on_raise)] += 1
                raise
            finally:
                took = perf_counter() - start
                nested = self._child.pop()
                if self._child:
                    self._child[-1] += took
                rec = self.spans[(self.phase, name)]
                rec[0] += 1
                rec[1] += took
                rec[2] += took - nested
            if on_result:
                on_result(self, out)
            return out

        return traced

    def count(self, name, value=1.0):
        self.counters[(self.phase, name)] += value

    # -- patching --------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__.get(key), key in owner.__dict__))
            setattr(owner, key, value)

    def wrap_function(self, module, attr, name, **hooks):
        """Rebind every reference to module.attr held by a schwarzlab module,
        as a global or as a value of a module-level dict."""
        target = getattr(module, attr, None)
        if target is None:
            return
        wrapper = self._span(name, target, **hooks)
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "schwarzlab"]:
            for key, value in list(vars(mod).items()):
                if value is target:
                    self._set(mod, key, wrapper)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is target:
                            self._set(value, k, wrapper)

    def wrap_local(self, module, attr, name=None, **hooks):
        """Rebind a foreign name (a scipy solver) in one module only.  Without
        a span name the call is not timed, only its hooks run."""
        target = getattr(module, attr, None)
        if target is None:
            return
        if name is None:
            def wrapper(*args, **kwargs):
                out = target(*args, **kwargs)
                hooks["on_result"](self, out)
                return out
        else:
            wrapper = self._span(name, target, **hooks)
        self._set(module, attr, wrapper)

    def wrap_method(self, cls, attr, name):
        if cls is None or getattr(cls, attr, None) is None:
            return
        self._set(cls, attr, self._span(name, getattr(cls, attr)))

    def uninstall(self):
        while self._undo:
            owner, key, value, present = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            elif present:
                setattr(owner, key, value)
            else:
                delattr(owner, key)

    # -- reading ---------------------------------------------------------

    def span(self, name, phases=("ops",)):
        calls, incl, self_s = 0, 0.0, 0.0
        for phase in phases:
            rec = self.spans.get((phase, name))
            if rec:
                calls += rec[0]
                incl += rec[1]
                self_s += rec[2]
        return calls, incl, self_s

    def counter(self, name, phases=("ops",)):
        return sum(self.counters.get((phase, name), 0.0) for phase in phases)


def _quad_counts(tracer, out):
    # quad(..., full_output=1) returns (y, abserr, info) when it converged and
    # appends a message when it did not
    tracer.count("variation.quad.neval", out[2]["neval"])
    if len(out) >= 4:
        tracer.count("variation.quad.not_converged")


def _du_ivp_counts(tracer, sol):
    tracer.count("variation.solve_du.nfev", sol.nfev)


def _el_ivp_counts(tracer, sol):
    tracer.count("el_ode.integrate.nfev", sol.nfev)
    tracer.count("el_ode.integrate.steps", len(sol.t) - 1)


def install(tracer):
    """Wrap the layer boundaries of schwarzlab.  Modules are looked up at
    call time so the caller imports the program first."""
    from schwarzlab import closed_form, el_ode, ode_geometry, symbolics, variation

    V = variation
    tracer.wrap_function(V, "solve_du", "variation.solve_du")
    tracer.wrap_local(V, "solve_ivp", on_result=_du_ivp_counts)
    tracer.wrap_method(getattr(V, "DuSolution", None), "residual", "variation.du_residual")
    tracer.wrap_function(V, "admissible_variation", "variation.admissible_variation")
    tracer.wrap_function(V, "delta_form", "variation.delta_form")
    tracer.wrap_local(V, "quad", "variation.quad", on_result=_quad_counts)
    tracer.wrap_function(V, "delta_fd", "variation.delta_fd")
    tracer.wrap_function(V, "functional_IL", "variation.functional")
    tracer.wrap_function(V, "functional_IS", "variation.functional")
    tracer.wrap_method(getattr(V, "PerturbedCurve", None), "__init__", "variation.PerturbedCurve")
    tracer.wrap_method(getattr(V, "PerturbedCurve", None), "jet", "variation.PerturbedCurve")
    tracer.wrap_method(getattr(V, "ExprCurve", None), "jet", "variation.curve_jet.ExprCurve")
    tracer.wrap_method(getattr(V, "MobiusCurve", None), "jet", "variation.curve_jet.MobiusCurve")

    S = symbolics
    tracer.wrap_function(S, "taylor_eval", "symbolics.taylor_eval")
    tracer.wrap_function(S, "formal_solution", "symbolics.formal_solution")
    tracer.wrap_function(S, "parse", "symbolics.parse")
    tracer.wrap_function(S, "differentiate", "symbolics.differentiate")

    tracer.wrap_function(ode_geometry, "w0", "ode_geometry.w0")
    tracer.wrap_function(ode_geometry, "w1", "ode_geometry.w1")

    tracer.wrap_function(closed_form, "family_series", "closed_form.family_series")
    tracer.wrap_function(closed_form, "family_singularities", "closed_form.family_singularities")

    tracer.wrap_function(el_ode, "integrate", "el_ode.integrate", on_raise="el_ode.integrate.raised")
    tracer.wrap_local(el_ode, "solve_ivp", on_result=_el_ivp_counts)
    tracer.wrap_function(el_ode, "invariant_drift", "el_ode.invariant_drift")


# Per-layer metrics: name -> (unit, how to read it).  Times and counts are
# totals over the traced op list; "_per_op" divides by its length.  The
# parse, differentiate and family_singularities entries also include the
# traced set-up, since that is where those calls happen.
#
# Which end-to-end figure each group should move, and where it should not:
#   solve_du, du_residual, admissible_variation, delta_form: ops_per_s and
#     op_p90_ms on critical; no change on forms, invariants, integrate
#   quad, delta_fd, functional, PerturbedCurve: ops_per_s on forms and
#     critical (not_converged counts quadratures that missed their tolerance)
#   curve_jet, taylor_eval: critical (ExprCurve jets) and invariants; no
#     change on integrate
#   formal_solution, w0, w1: ops_per_s on invariants
#   parse, differentiate: setup_s, mainly on invariants and critical
#   family_series, family_singularities: critical on its Moebius curves
#   el_ode.integrate, invariant_drift: ops_per_s, op_p90_ms and ok_ratio on
#     integrate
# The pointwise functions of schwarzian are too small to time from outside;
# their cost shows in their callers' self time.
SETUP_AND_OPS = ("setup", "ops")


def _calls(name, phases=("ops",)):
    return lambda t, n: t.span(name, phases)[0]


def _self(name):
    return lambda t, n: t.span(name)[2]


def _incl(name, phases=("ops",)):
    return lambda t, n: t.span(name, phases)[1]


def _per_op(read):
    return lambda t, n: read(t, n) / n if n else 0.0


def _counter(name):
    return lambda t, n: t.counter(name)


def _nfev_per_step(t, n):
    steps = t.counter("el_ode.integrate.steps")
    return t.counter("el_ode.integrate.nfev") / steps if steps else 0.0


LAYER_METRICS = {
    "variation.solve_du.calls": ("count", _calls("variation.solve_du")),
    "variation.solve_du.self_s": ("s", _self("variation.solve_du")),
    "variation.solve_du.nfev": ("count", _counter("variation.solve_du.nfev")),
    "variation.du_residual.calls": ("count", _calls("variation.du_residual")),
    "variation.du_residual.self_s": ("s", _self("variation.du_residual")),
    "variation.admissible_variation.self_s": ("s", _self("variation.admissible_variation")),
    "variation.delta_form.calls": ("count", _calls("variation.delta_form")),
    "variation.delta_form.self_s": ("s", _self("variation.delta_form")),
    "variation.quad.calls": ("count", _calls("variation.quad")),
    "variation.quad.self_s": ("s", _self("variation.quad")),
    "variation.quad.neval": ("count", _counter("variation.quad.neval")),
    "variation.quad.neval_per_op": ("count", _per_op(_counter("variation.quad.neval"))),
    "variation.quad.not_converged": ("count", _counter("variation.quad.not_converged")),
    "variation.delta_fd.self_s": ("s", _self("variation.delta_fd")),
    "variation.functional.self_s": ("s", _self("variation.functional")),
    "variation.PerturbedCurve.self_s": ("s", _self("variation.PerturbedCurve")),
    "variation.curve_jet.ExprCurve.calls": ("count", _calls("variation.curve_jet.ExprCurve")),
    "variation.curve_jet.ExprCurve.calls_per_op":
        ("count", _per_op(_calls("variation.curve_jet.ExprCurve"))),
    "variation.curve_jet.ExprCurve.self_s": ("s", _self("variation.curve_jet.ExprCurve")),
    "variation.curve_jet.MobiusCurve.calls": ("count", _calls("variation.curve_jet.MobiusCurve")),
    "variation.curve_jet.MobiusCurve.calls_per_op":
        ("count", _per_op(_calls("variation.curve_jet.MobiusCurve"))),
    "variation.curve_jet.MobiusCurve.self_s": ("s", _self("variation.curve_jet.MobiusCurve")),
    "symbolics.taylor_eval.calls": ("count", _calls("symbolics.taylor_eval")),
    "symbolics.taylor_eval.calls_per_op": ("count", _per_op(_calls("symbolics.taylor_eval"))),
    "symbolics.taylor_eval.self_s": ("s", _self("symbolics.taylor_eval")),
    "symbolics.formal_solution.calls": ("count", _calls("symbolics.formal_solution")),
    "symbolics.formal_solution.self_s": ("s", _self("symbolics.formal_solution")),
    "ode_geometry.w0.calls": ("count", _calls("ode_geometry.w0")),
    "ode_geometry.w0.self_s": ("s", _self("ode_geometry.w0")),
    "ode_geometry.w1.calls": ("count", _calls("ode_geometry.w1")),
    "ode_geometry.w1.self_s": ("s", _self("ode_geometry.w1")),
    "symbolics.parse.calls": ("count", _calls("symbolics.parse", SETUP_AND_OPS)),
    "symbolics.parse.s": ("s", _incl("symbolics.parse", SETUP_AND_OPS)),
    "symbolics.differentiate.calls": ("count", _calls("symbolics.differentiate", SETUP_AND_OPS)),
    "symbolics.differentiate.s": ("s", _incl("symbolics.differentiate", SETUP_AND_OPS)),
    "closed_form.family_series.calls": ("count", _calls("closed_form.family_series")),
    "closed_form.family_series.self_s": ("s", _self("closed_form.family_series")),
    "closed_form.family_singularities.calls":
        ("count", _calls("closed_form.family_singularities", SETUP_AND_OPS)),
    "closed_form.family_singularities.s":
        ("s", _incl("closed_form.family_singularities", SETUP_AND_OPS)),
    "el_ode.integrate.calls": ("count", _calls("el_ode.integrate")),
    "el_ode.integrate.self_s": ("s", _self("el_ode.integrate")),
    "el_ode.integrate.nfev": ("count", _counter("el_ode.integrate.nfev")),
    "el_ode.integrate.steps": ("count", _counter("el_ode.integrate.steps")),
    "el_ode.integrate.nfev_per_step": ("count", _nfev_per_step),
    "el_ode.integrate.raised": ("count", _counter("el_ode.integrate.raised")),
    "el_ode.invariant_drift.self_s": ("s", _self("el_ode.invariant_drift")),
}


def layer_metrics(tracer, n_ops):
    return {name: (read(tracer, n_ops), unit) for name, (unit, read) in LAYER_METRICS.items()}

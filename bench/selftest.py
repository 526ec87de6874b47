"""Self-test of the benchmark, in about a minute:

    python3 bench/selftest.py

For each workload it runs a tiny op list through the oracle and checks that
no result is wrong and that only the integrate ops crossing a true singular
time raise (they do today).  It then feeds each oracle a corrupted copy of a
passing result and checks that the oracle calls it wrong, and checks that a
faked stop close before a singular time passes and one too early does not.  It installs and
uninstalls the tracer and checks that every binding it touched is restored
and that a traced invariants block is counted.  Last, it runs run.py in both
modes on a short invariants run and checks the result line against
BENCHMARK.json.  Exit code 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def main():
    run.load_program()
    import tracing
    from workloads import FAIL, PASS, WORKLOADS, WRONG, Integrate

    problems = []
    for name, cls in WORKLOADS.items():
        wl = cls(1)
        ops = wl.block(0)[:4] if name != "integrate" else wl.block(0)
        passing = None
        for op in ops:
            try:
                result = wl.call(op)
            except Exception as exc:  # an op may raise; it must be a known failure
                if not (isinstance(wl, Integrate) and op[4] is not None):
                    problems.append(f"{name}: op raised {exc!r}")
                continue
            verdict, reason = wl.check(op, result)
            if verdict == FAIL:
                print(f"selftest {name}: op missed an accuracy gate: {reason}")
            elif verdict != PASS:
                problems.append(f"{name}: {verdict} {reason}")
            elif passing is None:
                passing = (op, result)
        if passing is None:
            problems.append(f"{name}: no passing op to corrupt")
            continue
        op, result = passing
        if wl.check(op, wl.corrupt(op, result))[0] != WRONG:
            problems.append(f"{name}: the oracle accepted a corrupted result")
        print(f"selftest {name}: {len(ops)} ops checked, corrupted result flagged")

    # an op across a true singular time passes only if it stops close before
    # it on the exact family: fake such stops, one close and one too early
    import dataclasses

    import schwarzlab.closed_form as C
    import schwarzlab.el_ode as E

    wl = Integrate(1)
    fam, ts, t_end, tol, t_sing = next(op for op in wl.block(0) if op[4] is not None)
    for gap, want in ((0.05, PASS), (0.2, WRONG)):
        traj = E.integrate(C.family_eval_jet(fam, ts), t_sing - gap, tol)
        traj = dataclasses.replace(traj, status=E.STATUS_STOPPED)
        got = wl.check((fam, ts, t_end, tol, t_sing), (traj, E.invariant_drift(traj)))[0]
        if got != want:
            problems.append(f"integrate: a stop {gap} before the singular time is {got}, not {want}")
    print("selftest integrate: stops before a singular time judged by their distance")

    import schwarzlab.symbolics as S
    import schwarzlab.variation as V

    def bindings():
        return (S.taylor_eval, V.taylor_eval, V.quad, V.solve_ivp, V.ExprCurve.jet,
                V.PerturbedCurve.__init__, V._FUNCTIONALS["I_L"])

    before = bindings()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    if V.taylor_eval is before[1] or V._FUNCTIONALS["I_L"] is before[-1]:
        problems.append("tracer did not wrap the imported names")
    tracer.phase = "ops"
    wl = WORKLOADS["invariants"](1)
    for op in wl.block(0):
        wl.call(op)
    tracer.uninstall()
    if any(a is not b for a, b in zip(before, bindings())):
        problems.append("tracer left a wrapper behind")
    layers = tracing.layer_metrics(tracer, len(wl.block(0)))
    for key in ("ode_geometry.w0.calls", "symbolics.formal_solution.self_s",
                "symbolics.taylor_eval.calls_per_op"):
        if not layers[key][0] > 0:
            problems.append(f"traced metric {key} is zero")
    print("selftest tracing: wrappers installed, counted and removed")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.main(["--workload", "invariants", "--seconds", "0.2", "--trace", str(trace)])
        res = json.loads(out.getvalue().strip().splitlines()[-1])
        if set(res) != {"correct", "attempted", "failed", "metrics"} or not res["correct"]:
            problems.append(f"--trace {trace}: bad result line {sorted(res)}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != want:
            problems.append(f"--trace {trace}: metrics differ from BENCHMARK.json {key}")
        print(f"selftest run.py --trace {trace}: {len(got)} metrics as in BENCHMARK.json")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

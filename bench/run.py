"""Benchmark of schwarzlab: four workloads, every op checked by an oracle.

    python3 bench/run.py --workload critical --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run it from the repository root; it imports the package from ./src.  One
process, one thread: the BLAS thread variables are set to 1 before numpy is
imported.

--trace 0 measures the end-to-end metrics.  Ops are generated in blocks from
the seed and run in a closed loop, one after another.  A run makes a fixed
number of blocks, --seconds over the block's wall time on the baseline
machine (BLOCK_S), so it takes about --seconds there and the same seed
always runs the same ops: a run that stopped on the clock would attempt a
few ops more or fewer from one run to the next, and with them a failure
count that differs between runs of the same code.  Each op is timed alone;
its oracle check and the generation of the next block run outside the timed
region.

  ops_per_s    ops that passed their oracle, per second of timed op time
  op_p50_ms    median latency of one op
  op_p90_ms    90th percentile latency of one op
  ok_ratio     passed / attempted, i.e. 1 - failed_ratio
  setup_s      process start to the first op: the median of three fresh
               processes that import schwarzlab, build the workload's curves
               and fields, and generate its first block
  peak_rss_mb  peak resident memory of the measuring process

An op that raises or misses a check counts as failed; it still adds to the
latency samples and to the time behind ops_per_s.

The three op-time metrics are given at a fixed machine speed.  On a shared
machine the speed of one core drifts by 10-20 % over seconds, which would
swamp the differences the benchmark is meant to show.  So a fixed piece of
reference work that is not part of the program, a small scipy RK45 solve
with a Python right-hand side, is timed after every REFERENCE_EVERY_S of op
time.  Its slowdown is its median time over the reference samples within
LOCAL_S of an op, divided by its time at the fixed speed, and the op's time
is divided by that slowdown.  Over six seeds of forms and integrate this
left the spreads of the three op-time metrics at 0.3 to 0.8 of those with
one slowdown for the whole run.  Adding a pure-Python loop as a second piece
of reference work tracked the drift worse on forms, and a window of 1 or 3 s
did no better.  The record keeps the whole run's slowdown and the raw
op-time figures.

--trace 1 measures the per-layer metrics.  It takes a fixed op list (the
first TRACE_BLOCKS blocks, so totals compare between commits), runs each op
once untraced and once with tracing.py's wrappers installed, and reports the
per-layer totals, the tracing overhead (traced over untraced time of the same
ops), and, in the critical run only, the spot timings that ROADMAP item 1
quotes (0 in the other runs).

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  The line before it, starting with "record",
holds the run environment, sample counts, failure reasons and the extra
figures (failed_ratio, and for integrate the share of ops that cross a true
singular time).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("critical", "forms", "invariants", "integrate")
SETUP_REPEATS = 3
REFERENCE_EVERY_S = 0.05
LOCAL_S = 2.0
# wall time of one block, with its checks and reference work, on the shared
# 2-core Xeon the baseline was measured on
BLOCK_S = {"critical": 2.1, "forms": 1.6, "invariants": 0.013, "integrate": 0.45}
TRACE_BLOCKS = {"critical": 4, "forms": 5, "invariants": 400, "integrate": 8}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_program():
    """Import schwarzlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "schwarzlab" / "__init__.py").is_file():
        sys.exit(f"bench: no schwarzlab package under {SRC}; run from a full checkout")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import schwarzlab

    if Path(schwarzlab.__file__).resolve().parent != SRC / "schwarzlab":
        sys.exit(f"bench: imported schwarzlab from {schwarzlab.__file__}, not {SRC}")


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class Tally:
    """Latency samples and oracle verdicts of one pass over ops."""

    def __init__(self):
        self.latency = []
        self.started = []
        self.reference = []
        self.reference_at = []
        self.verdicts = Counter()
        self.reasons = Counter()

    def add(self, took, verdict, reason):
        self.latency.append(took)
        self.verdicts[verdict] += 1
        if reason:
            self.reasons[reason] += 1

    @property
    def attempted(self):
        return len(self.latency)

    @property
    def failed(self):
        return self.attempted - self.verdicts["pass"]


def run_op(wl, op, tally, tracer=None):
    from workloads import FAIL

    if tracer:
        tracer.phase = "ops"
    start = perf_counter()
    try:
        result = wl.call(op)
        error = None
    except Exception as exc:  # counted as a failed op; the run goes on
        error = exc
    took = perf_counter() - start
    tally.started.append(start)
    if tracer:
        tracer.phase = "oracle"
    if error is not None:
        tally.add(took, FAIL, f"raised {type(error).__name__}")
    else:
        tally.add(took, *wl.check(op, result))


def _oscillators(t, y):
    return (y[1], -y[0], y[3], -y[2])


def reference_scipy():
    from scipy.integrate import solve_ivp

    return solve_ivp(_oscillators, (0.0, 3.0), (1.0, 0.0, 0.5, 0.1), method="RK45",
                     rtol=1e-9, atol=1e-9)


# the reference work's typical time in ms on the 2-core Xeon the baseline was
# measured on: it fixes the speed op times are scaled to
REFERENCE_MS = 2.5


def time_reference(tally):
    start = perf_counter()
    reference_scipy()
    tally.reference_at.append(start)
    tally.reference.append(perf_counter() - start)


def timed_run(wl, first_block, n_blocks):
    tally = Tally()
    time_reference(tally)
    since_reference = 0.0
    for b in range(n_blocks):
        for op in first_block if b == 0 else wl.block(b):
            run_op(wl, op, tally)
            since_reference += tally.latency[-1]
            if since_reference >= REFERENCE_EVERY_S:
                time_reference(tally)
                since_reference = 0.0
    return tally


def blocks_for(workload, seconds):
    """The fixed number of blocks a run of --seconds makes."""
    return max(1, round(seconds / BLOCK_S[workload]))


def slowdown(tally, lo=-math.inf, hi=math.inf):
    """How much slower than the fixed speed the machine ran between lo and hi:
    the reference work's median time there over its typical time.  The whole
    run when no reference sample falls there."""
    i = bisect.bisect_left(tally.reference_at, lo)
    j = bisect.bisect_right(tally.reference_at, hi)
    if i == j:
        i, j = 0, len(tally.reference_at)
    return statistics.median(tally.reference[i:j]) * 1e3 / REFERENCE_MS


def measure_setup(args) -> list:
    """Wall time from launching a fresh process to the end of its set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        launched = time.time()
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True,
        )
        times.append(float(out.stdout.split()[-1]) - launched)
    return times


def end_to_end(args, wl_cls):
    import resource

    wl = wl_cls(args.seed)
    first = wl.block(0)
    start = perf_counter()
    tally = timed_run(wl, first, blocks_for(args.workload, args.seconds))
    run_wall_s = perf_counter() - start
    wrong = tally.verdicts["wrong"]
    run_wrong = wl.run_checks()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = measure_setup(args)

    # op times at the fixed machine speed; the raw figures stay in the record
    lat = sorted(took / slowdown(tally, start - LOCAL_S, start + LOCAL_S)
                 for took, start in zip(tally.latency, tally.started))
    raw = sorted(tally.latency)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    raw_p90 = statistics.quantiles(raw, n=10)[8] if len(raw) >= 2 else raw[0]
    metrics = {
        "ops_per_s": (tally.verdicts["pass"] / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "ok_ratio": (tally.verdicts["pass"] / tally.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "samples": len(lat),
        "samples_beyond_p90": sum(1 for x in lat if x > p90),
        "slowdown": slowdown(tally),
        "reference_samples": len(tally.reference),
        "raw_ops_per_s": tally.verdicts["pass"] / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_p90_ms": raw_p90 * 1e3,
        "timed_s": sum(raw),
        "run_wall_s": run_wall_s,
        "blocks": blocks_for(args.workload, args.seconds),
        "failed_ratio": tally.failed / tally.attempted,
        "verdicts": dict(tally.verdicts),
        "reasons": dict(tally.reasons),
        "run_check_failures": run_wrong,
        "setup_runs_s": setups,
        **wl.record(),
    }
    return tally, wrong == 0 and not run_wrong, metrics, record


ROADMAP_SPOTS = (("roadmap.critical_tan_n10_s", "s"), ("roadmap.exprcurve_jet_us", "us"),
                 ("roadmap.w0_w1_ms", "ms"), ("roadmap.integrate_tan_ms", "ms"),
                 ("roadmap.integrate_tan_steps", "count"))


def roadmap_spots() -> dict:
    """The single-call timings quoted in ROADMAP item 1, measured untraced."""
    from schwarzlab import el_ode, ode_geometry, variation
    from schwarzlab.schwarzian import Jet4

    def median_of(fn, repeats):
        times = []
        for _ in range(repeats):
            start = perf_counter()
            out = fn()
            times.append(perf_counter() - start)
        return statistics.median(times), out

    tan = variation.ExprCurve("tan(t)", (0.1, 1.0))
    crit, _ = median_of(lambda: variation.critical_test(tan, 0.1, 1.0, n=10), 1)
    grid = [0.1 + 0.9 * i / 199 for i in range(200)]
    jets, _ = median_of(lambda: [tan.jet(t) for t in grid], 5)
    field, jet = ode_geometry.el_field(), Jet4(0.0, 0.0, 1.0, 0.0, 2.0)
    w01, _ = median_of(lambda: (ode_geometry.w0(field, jet), ode_geometry.w1(field, jet)), 21)
    integ, traj = median_of(lambda: el_ode.integrate(jet, 1.0, 1e-10), 5)
    values = (crit, jets / len(grid) * 1e6, w01 * 1e3, integ * 1e3, len(traj.samples) - 1)
    return {name: (v, unit) for (name, unit), v in zip(ROADMAP_SPOTS, values)}


def per_layer(args, wl_cls):
    from tracing import Tracer, install, layer_metrics

    tracer = Tracer()
    install(tracer)
    wl = wl_cls(args.seed)
    ops = [op for b in range(TRACE_BLOCKS[args.workload]) for op in wl.block(b)]
    tracer.uninstall()

    # each op runs untraced and then traced, back to back, so that the drift
    # of a shared machine's speed falls on both halves of the overhead alike
    plain, traced = Tally(), Tally()
    for op in ops:
        run_op(wl, op, plain)
        install(tracer)
        try:
            run_op(wl, op, traced, tracer)
        finally:
            tracer.uninstall()
    wrong = plain.verdicts["wrong"] + traced.verdicts["wrong"]
    run_wrong = wl.run_checks()

    untraced_s, traced_s = sum(plain.latency), sum(traced.latency)
    metrics = layer_metrics(tracer, len(ops))
    metrics.update({
        "trace.ops": (len(ops), "count"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_pct": ((traced_s / untraced_s - 1.0) * 100.0, "%"),
    })
    # the spot timings do not depend on the workload: measured once, in the
    # critical run, and 0 in the others
    metrics.update(roadmap_spots() if args.workload == "critical"
                   else {name: (0.0, unit) for name, unit in ROADMAP_SPOTS})
    record = {
        "samples": len(ops),
        "failed_ratio": traced.failed / traced.attempted,
        "verdicts": dict(traced.verdicts),
        "reasons": dict(traced.reasons),
        "run_check_failures": run_wrong,
        **wl.record(),
    }
    return traced, wrong == 0 and not run_wrong, metrics, record


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def print_result(name, metrics, correct, attempted, failed, record):
    for key, (value, unit) in metrics.items():
        print(f"{name:<11} {key:<46} {value:>16.6g} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Each workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with {out.returncode}\n{out.stderr}")
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    load_program()
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    wl_cls = WORKLOADS[args.workload]
    if args.setup_only:
        wl_cls(args.seed).block(0)
        print(repr(time.time()))
        return None
    env = environment(args)
    tally, correct, metrics, record = (per_layer if args.trace else end_to_end)(args, wl_cls)
    record = {**env, "attempted": tally.attempted, "failed": tally.failed, **record}
    print_result(args.workload, metrics, correct, tally.attempted, tally.failed, record)
    return None


if __name__ == "__main__":
    main()

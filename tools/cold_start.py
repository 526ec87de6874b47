"""Time each README command line in fresh processes: the cost a user pays per
call, interpreter start and imports included.

Each command runs as `python -m schwarzlab.cli ...` with PYTHONPATH set to
the checkout's src/, in a temporary working directory (for the files a
command writes), REPEATS times per checkout.  Given two checkouts, the runs
alternate: one of each per command and repeat, the side that runs first
swapping from repeat to repeat, so both see the same machine.  A command
that exits with a code other than the one the README documents stops the
tool with exit 1, since its time would mean nothing.  Prints one JSON
object: per command and checkout, the median and interquartile range of the
wall times in seconds, and every run.  Standard library only.

    python3 tools/cold_start.py [--repeats N] [CHECKOUT ...]

CHECKOUT defaults to this repository; each is labelled in the output by the
path as given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the README's command lines, each with the exit code it documents
COMMANDS = (
    (("integrate", "--jet", "0,0,1,0,2", "--t-end", "1", "--tol", "1e-10", "--out", "traj.csv"), 0),
    (("integrate", "--jet", "0,0,1,0,2", "--t-end", "2"), 2),
    (("invariants", "--field", "EL", "--jet", "0,0,1,0,2"), 0),
    (("invariants", "--F", "r", "--jet", "0,0,1,1,1"), 0),
    (("invariants", "--field", "EL", "--random", "20", "--seed", "1"), 0),
    (("family", "--sigma", "2", "--A", "1", "--B", "0", "--C", "0", "--D", "1", "--verify", "100",
      "--jet-at", "0.5"), 0),
    (("linearize", "--field", "EL", "--base", "exp", "--t", "0.3"), 0),
    (("variation", "--u", "tan(t)", "--interval", "0.1,1", "--n", "50", "--expect-critical"), 3),
    (("variation", "--u", "1/(t-0.503)", "--interval", "0,1", "--n", "3"), 1),
    (("variation", "--u", "t", "--interval", "0,1e11", "--n", "1"), 0),
)


def time_once(checkout: Path, argv: tuple, expected: int, cwd: str) -> float:
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "schwarzlab.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=300)
    took = time.perf_counter() - start
    if done.returncode != expected:
        sys.exit(f"cold_start: {checkout}: schwarzlab {' '.join(argv)} exited {done.returncode}, "
                 f"not {expected}: {done.stderr.decode(errors='replace').strip()}")
    return took


def summary(runs: list) -> dict:
    iqr = 0.0
    if len(runs) > 1:
        q1, _, q3 = statistics.quantiles(runs, n=4)
        iqr = q3 - q1
    return {"median_s": statistics.median(runs), "iqr_s": iqr, "runs_s": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5, help="fresh processes per command and checkout")
    ap.add_argument("checkouts", nargs="*", default=[str(Path(__file__).resolve().parents[1])])
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    for c in args.checkouts:
        if not (Path(c) / "src" / "schwarzlab" / "cli.py").is_file():
            ap.error(f"{c} holds no src/schwarzlab/cli.py")
    runs = {" ".join(argv): {c: [] for c in args.checkouts} for argv, _ in COMMANDS}
    with tempfile.TemporaryDirectory() as cwd:
        for i in range(args.repeats):
            order = args.checkouts if i % 2 == 0 else args.checkouts[::-1]
            for argv, expected in COMMANDS:
                for c in order:
                    runs[" ".join(argv)][c].append(time_once(Path(c), argv, expected, cwd))
    print(json.dumps({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "repeats": args.repeats,
        "commands": {cmd: {c: summary(r) for c, r in by.items()} for cmd, by in runs.items()},
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

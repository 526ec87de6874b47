"""Check that two checkouts give every benchmark op the same result, bit for bit.

For each workload and seed, builds the ops from each checkout's own
bench/workloads.py, in a fresh process per checkout started from its root
(so each imports the package from its own src/, with the bench's one-thread
BLAS settings), over the full-length run's blocks: as many as the checkout's
bench/run.py makes for its BENCHMARK.json's run_seconds.  Each op's result
is hashed by its repr, and an op that raises by its exception's type and
message.  Prints, per workload and seed, the first op whose digests differ,
or one digest over all ops when none does.  Exits 0 when every digest is
equal, 1 when one differs, and 2 when a checkout's run fails or the two
make different ops.  Standard library only.

    python3 tools/same_bits.py PARENT CHANGE --workload W [--workload W ...]
        [--seeds A-B]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

# run in each checkout: one line per op, its block and index, the op's repr,
# and the sha256 of its result's repr
DIGESTS = r"""
import hashlib, json, sys
sys.path.insert(0, "bench")
import run
run.load_program()
from workloads import WORKLOADS
workload, seed = sys.argv[1], int(sys.argv[2])
with open("BENCHMARK.json") as fh:
    seconds = json.load(fh)["run_seconds"]
wl = WORKLOADS[workload](seed)
for b in range(run.blocks_for(workload, seconds)):
    for i, op in enumerate(wl.block(b)):
        try:
            text = repr(wl.call(op))
        except Exception as exc:
            text = f"{type(exc).__name__}: {exc}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(json.dumps([b, i, repr(op)[:200], digest, text[:200]]))
"""


class RunFailed(Exception):
    pass


def digests(checkout: Path, workload: str, seed: int) -> list:
    """[block, index, op, digest, result] per op of one workload and seed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", DIGESTS, workload, str(seed)], cwd=checkout, env=env,
                          capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        raise RunFailed(f"{checkout}: {workload} seed {seed} exited {done.returncode}: "
                        f"{done.stderr.strip()[-2000:]}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def compare(parent: list, change: list) -> str | None:
    """The report of the first op whose digests differ, or None."""
    if len(parent) != len(change):
        raise RunFailed(f"the parent makes {len(parent)} ops and the change {len(change)}")
    for n, (p, c) in enumerate(zip(parent, change)):
        if p[3] != c[3]:
            return (f"first difference at op {n} (block {p[0]}, item {p[1]}): {p[2]}\n"
                    f"  parent {p[3][:16]}: {p[4]}\n  change {c[3][:16]}: {c[4]}")
    return None


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_range, default=range(1, 2), help="A-B, or one seed A (default 1)")
    args = ap.parse_args(argv)
    differ = False
    for workload in args.workload:
        for seed in args.seeds:
            try:
                parent = digests(args.parent, workload, seed)
                change = digests(args.change, workload, seed)
                report = compare(parent, change)
            except (RunFailed, subprocess.TimeoutExpired) as err:
                print(f"same_bits: {workload} seed {seed}: {err}", file=sys.stderr)
                return 2
            if report is None:
                whole = hashlib.sha256("".join(p[3] for p in parent).encode()).hexdigest()[:16]
                print(f"{workload} seed {seed}: {len(parent)} ops, same digest {whole}")
            else:
                differ = True
                print(f"{workload} seed {seed}: {report}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload integrate --seeds 1-10

Runs bench/run.py once per seed, one run at a time, with the command and
run length of BENCHMARK.json, and prints for each metric the median, the
quartiles (statistics.quantiles, n=4) and the distance between the quartiles
as a share of the median, next to the metric's bound, and the failed and
attempted ops summed over the seeds.  A spread above a third
of its bound is marked; setup_s is exempt, its median is what gets compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in names:
        values = {m: [] for m in bounds}
        attempted = failed = 0
        for seed in args.seeds:
            out = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{name} seed {seed}: incorrect result")
            attempted += res["attempted"]
            failed += res["failed"]
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if m == "setup_s" or share <= bounds[m] / 3 else "  > bound/3"
            print(f"{name:<11} {m:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {share:.4f} bound {bounds[m]}{flag}", flush=True)
        print(f"{name:<11} failed {failed} of {attempted} ops", flush=True)
        print(f"{name:<11} values " + json.dumps(values), flush=True)


if __name__ == "__main__":
    main()

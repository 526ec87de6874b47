"""Run the benchmark in alternating pairs on two checkouts and summarise them.

For each workload, runs

    python3 bench/run.py --workload W --seed S --trace 0

PAIRS times in each checkout, from that checkout's root (the bench imports
the package from its own src/), for the run length the bench fixes.  The
side that runs first alternates from pair to pair, so both see the same
machine.  A run that exits with an error, or prints no result line, stops
the tool with exit 1.  Writes one JSON object in the layout of the
BENCH_*.json files: the run length, as the bench recorded it; per workload
the seed, the runs (each side's record and result lines, as printed),
whether every run was correct, and per end-to-end metric the medians of
both sides, the interquartile range of the parent's runs, the number of
pairs the change won (ties count for neither side), how much worse the
change's median is than the parent's as a fraction of it (negative when
better), and the bound that BENCHMARK.json fixes for it.  Per side it also
summarises the record lines: the medians of the raw (unscaled) op-time
figures, each run's number of reference samples, and the runs with fewer
than FEW_REFERENCE_SAMPLES of them, by name ("pair 3 change"): such a
run scales its op times by the median of one or two reference samples, and
the first of them also pays for scipy's import.  Standard library only.

    python3 tools/bench_pairs.py [--pairs N] --seed S --workload W
        [--workload W ...] [--claim TEXT] [--out FILE] PARENT CHANGE
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
COMMAND = "python3 bench/run.py --workload WORKLOAD --seed SEED --trace 0"
# the record's raw op-time figures, summarised by their medians
RAW = ("raw_ops_per_s", "raw_op_p50_ms", "raw_op_p90_ms")
# a run with fewer reference samples than this is named in the summary
FEW_REFERENCE_SAMPLES = 3


def run_once(checkout: Path, workload: str, seed: int) -> tuple:
    """(record line, result line) of one bench run in checkout."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=1800)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("record "):
        sys.exit(f"bench_pairs: {checkout}: {' '.join(argv[1:])} exited {done.returncode}: "
                 f"{done.stderr.strip()[-2000:]}")
    return lines[-2], lines[-1]


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: list, end_to_end: list) -> dict:
    """Per end-to-end metric, the summary of runs, a list of {"pair", "side",
    "result"} with each result the bench's last output line.  end_to_end is
    BENCHMARK.json's list of metrics, each with its name, better and bound."""
    value = {(r["pair"], r["side"]): json.loads(r["result"])["metrics"] for r in runs}
    pairs = sorted({pair for pair, _ in value})
    out = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        side = {s: [value[p, s][name]["value"] for p in pairs] for s in SIDES}
        parent, change = (statistics.median(side[s]) for s in SIDES)
        worse = parent - change if higher else change - parent
        won = sum(c > p if higher else c < p for p, c in zip(side["parent"], side["change"]))
        out[name] = {
            "parent_median": parent,
            "change_median": change,
            "parent_iqr": iqr(side["parent"]),
            "change_better_pairs": won,
            "pairs": len(pairs),
            # a parent median of 0 (every op failed) makes any change infinitely worse or better
            "worse_by": worse / abs(parent) if parent else math.copysign(math.inf, worse) if worse else 0.0,
            "bound": metric["bound"],
        }
    return out


def summarize_records(runs: list) -> dict:
    """Per side, from the record lines of runs (each {"pair", "side",
    "record"}, the record line as printed): the medians of the RAW figures,
    each run's reference samples in pair order, and the runs with fewer than
    FEW_REFERENCE_SAMPLES of them."""
    out = {}
    for side in SIDES:
        mine = sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
        records = [json.loads(r["record"][len("record "):]) for r in mine]
        samples = [record["reference_samples"] for record in records]
        out[side] = {
            **{f"{name}_median": statistics.median(record[name] for record in records) for name in RAW},
            "reference_samples": samples,
            "few_reference_samples": [f"pair {r['pair']} {side}" for r, n in zip(mine, samples)
                                      if n < FEW_REFERENCE_SAMPLES],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--claim", default="")
    ap.add_argument("--out", help="the JSON file to write; standard output without it")
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    checkouts = {"parent": Path(args.parent), "change": Path(args.change)}
    for c in checkouts.values():
        if not (c / "bench" / "run.py").is_file():
            ap.error(f"{c} holds no bench/run.py")
    end_to_end = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())["end_to_end"]

    report = {
        "claim": args.claim,
        "command": COMMAND,
        "pairs": f"{args.pairs} per workload; each side runs from its own copy of its tree (parent: the parent "
                 "commit, change: this change); the side that runs first alternates from pair to pair",
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                record, result = run_once(checkouts[side], workload, args.seed)
                runs.append({"pair": pair, "side": side, "record": record, "result": result})
                print(f"{workload} pair {pair} {side}: {result}", file=sys.stderr, flush=True)
        report["workloads"][workload] = {
            "seed": args.seed,
            "summary": summarize(runs, end_to_end),
            "records": summarize_records(runs),
            "runs": runs,
            "all_correct": all(json.loads(r["result"])["correct"] for r in runs),
        }
        record = json.loads(runs[-1]["record"][len("record "):])
        report["machine"] = {k: record[k] for k in ("cpu", "nproc", "python", "numpy", "scipy")}
        report["seconds"] = record["seconds"]
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""tools/bench_pairs.py on canned bench output: the summary of alternating
pairs, and the order in which the two checkouts run.  No bench is run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
              {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
              {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.1}]


def result_line(ops, p50, ok=1.0, correct=True):
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"}, "op_p50_ms": {"value": p50, "unit": "ms"},
               "ok_ratio": {"value": ok, "unit": "ratio"}}
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics})


# (parent, change) ops_per_s and op_p50_ms per pair
CANNED = [((100.0, 2.0), (120.0, 1.5)), ((110.0, 2.2), (105.0, 1.9)), ((90.0, 1.8), (130.0, 1.8)),
          ((105.0, 2.1), (125.0, 1.6))]


def canned_runs():
    return [{"pair": i, "side": side, "result": result_line(*values)}
            for i, pair in enumerate(CANNED) for side, values in zip(("parent", "change"), pair)]


def record_line(raw_ops, p50, p90, samples, **machine):
    return "record " + json.dumps({**machine, "seconds": 25.0, "raw_ops_per_s": raw_ops, "raw_op_p50_ms": p50,
                                   "raw_op_p90_ms": p90, "reference_samples": samples})


# (parent, change) raw_ops_per_s, raw_op_p50_ms, raw_op_p90_ms and reference samples per pair
CANNED_RECORDS = [((90.0, 2.5, 3.0, 4), (100.0, 2.0, 2.5, 2)), ((95.0, 2.4, 3.5, 3), (130.0, 1.5, 2.0, 3)),
                  ((80.0, 2.6, 3.1, 2), (110.0, 1.8, 2.4, 1)), ((85.0, 2.0, 2.9, 5), (120.0, 1.9, 2.2, 4))]


def test_records_of_canned_pairs():
    runs = [{"pair": i, "side": side, "record": record_line(*values)}
            for i, pair in enumerate(CANNED_RECORDS) for side, values in zip(("parent", "change"), pair)]
    # the order of the runs is the pairs', not the sides'
    records = bench_pairs.summarize_records(runs[::-1])
    assert records["parent"] == {"raw_ops_per_s_median": 87.5, "raw_op_p50_ms_median": 2.45,
                                 "raw_op_p90_ms_median": 3.05, "reference_samples": [4, 3, 2, 5],
                                 "few_reference_samples": ["pair 2 parent"]}
    assert records["change"] == {"raw_ops_per_s_median": 115.0, "raw_op_p50_ms_median": 1.85,
                                 "raw_op_p90_ms_median": 2.3, "reference_samples": [2, 3, 1, 4],
                                 "few_reference_samples": ["pair 0 change", "pair 2 change"]}


def test_summary_of_canned_pairs():
    summary = bench_pairs.summarize(canned_runs(), END_TO_END)
    ops = summary["ops_per_s"]
    assert ops["parent_median"] == 102.5 and ops["change_median"] == 122.5
    assert ops["parent_iqr"] == pytest.approx(108.75 - 92.5)  # statistics.quantiles, exclusive
    assert ops["change_better_pairs"] == 3 and ops["pairs"] == 4
    assert ops["worse_by"] == pytest.approx(-20.0 / 102.5)
    assert ops["bound"] == 0.2
    p50 = summary["op_p50_ms"]
    assert (p50["parent_median"], p50["change_median"]) == pytest.approx((2.05, 1.7))
    # lower is better, and the tie in pair 2 counts for neither side
    assert p50["change_better_pairs"] == 3
    assert p50["worse_by"] == pytest.approx((1.7 - 2.05) / 2.05)
    ok = summary["ok_ratio"]
    assert (ok["change_better_pairs"], ok["worse_by"], ok["parent_iqr"]) == (0, 0.0, 0.0)


def test_pairs_alternate_and_the_report_keeps_every_run(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    order = []
    machine = {"cpu": "x", "nproc": 2, "python": "3", "numpy": "2", "scipy": "1"}

    def canned(checkout, workload, seed):
        # each side's n-th run reads pair n of CANNED and of CANNED_RECORDS
        side = ("parent", "change").index(checkout.name)
        n = order.count(checkout.name)
        order.append(checkout.name)
        return record_line(*CANNED_RECORDS[n][side], **machine), result_line(*CANNED[n][side])

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--pairs", "4", "--seed", "3", "--workload", "integrate", "--out", str(out),
                             str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    assert order == ["parent", "change", "change", "parent"] * 2
    report = json.loads(out.read_text())
    assert set(report) == {"claim", "command", "seconds", "pairs", "workloads", "machine"}
    assert report["machine"] == machine and report["seconds"] == 25.0
    wl = report["workloads"]["integrate"]
    assert wl["seed"] == 3 and wl["all_correct"] is True and len(wl["runs"]) == 8
    assert wl["summary"] == bench_pairs.summarize(canned_runs(), END_TO_END)
    assert wl["records"]["parent"]["reference_samples"] == [4, 3, 2, 5]
    assert wl["records"]["change"]["few_reference_samples"] == ["pair 0 change", "pair 2 change"]

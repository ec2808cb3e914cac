#!/usr/bin/env python3
"""Appends parent-vs-change perfbench rows to BENCH_perfbench.json.

    append_bench.py BENCH.json PARENT.txt CHANGE.txt --workload W --seed N --commit C

Each .txt holds the last lines `perfbench/run.py --trace 0` printed, one run
per line, line i of both files being pair i. Appends one row per end-to-end
metric of BENCHMARK.json; refuses runs whose output checks failed.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile


def read_runs(path):
    with open(path) as handle:
        runs = [json.loads(line) for line in handle if line.strip()]
    for run in runs:
        if run["correct"] is not True or run["failed"] != 0:
            raise SystemExit("%s: a run failed its output checks: %s" % (path, json.dumps(run)))
    return runs


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def append(bench, parent_path, change_path, workload, seed, commit, root):
    parent, change = read_runs(parent_path), read_runs(change_path)
    if len(parent) != len(change) or len(parent) < 2:
        raise SystemExit("need the same number (>= 2) of parent and change runs")
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    rows = []
    if os.path.exists(bench):
        with open(bench) as handle:
            rows = json.load(handle)
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                     "better": metric["better"], "parent": summary(p), "change": summary(c),
                     "pairs": len(p), "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
                     "seed": seed, "nproc": len(os.sched_getaffinity(0)), "commit": commit,
                     "backfilled": False})
    with open(bench, "w") as handle:
        handle.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    return rows


def self_test(root):
    def fixture(name):
        return os.path.join(root, "tests", "bench_fixtures", name)

    with tempfile.TemporaryDirectory() as scratch:
        bench = os.path.join(scratch, "bench.json")
        for _ in range(2):
            rows = append(bench, fixture("parent.txt"), fixture("change.txt"), "strategy-sweep",
                          42, "abc", root)
        with open(bench) as handle:
            assert json.load(handle) == rows and len(rows) == 14, "a second append adds 7 rows"
        try:
            append(bench, fixture("failed.txt"), fixture("failed.txt"), "x", 1, "abc", root)
            raise AssertionError("a run whose output checks failed must be refused")
        except SystemExit:
            pass
    by_metric = {row["metric"]: row for row in rows[7:]}
    sweep, rss = by_metric["scenarios_per_s"], by_metric["peak_rss_mb"]
    assert sweep["parent"] == {"median": 70.0, "q1": 60.0, "q3": 80.0}, sweep
    assert sweep["change"]["median"] == 85.0 and sweep["change_wins"] == 2, sweep
    assert rss["change_wins"] == 1 and rss["pairs"] == 3, rss  # lower wins, ties do not
    print("append_bench --self-test OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="BENCH.json PARENT.txt CHANGE.txt")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--commit")
    parser.add_argument("--root", default=".", help="repo root (holds BENCHMARK.json)")
    parser.add_argument("--self-test", action="store_true", help="check tests/bench_fixtures")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test(args.root)
    if len(args.files) != 3 or None in (args.workload, args.seed, args.commit):
        parser.error("give BENCH.json PARENT.txt CHANGE.txt, --workload, --seed and --commit")
    append(*args.files, args.workload, args.seed, args.commit, args.root)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Compare two sets of benchmark runs: parent commit vs change.

    python3 perfbench/compare.py --parent DIR --change DIR [--benchmark BENCHMARK.json]

Each DIR holds one file per run: the stdout of `perfbench/run.py --trace 0`.
The workload is read from the run's table rows, so file names are free.
Runs of one workload are paired in file-name order (parent i with change i).

Per workload and end-to-end metric of BENCHMARK.json, the verdict is:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither side), at least 10 pairs were run, and the medians
              differ by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread (IQR / median) is wider than the bound,
              and not every change run reads better than every parent run
  unchanged   otherwise

Exit status is 1 when any row is worse or any run reported incorrect output.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_run(path):
    """Returns (workload, record) from one run's stdout."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    record = json.loads(lines[-1])
    rows = [ln for ln in lines[:-1] if not ln.startswith("{")]
    if not rows:
        raise ValueError(f"{path}: no table rows before the JSON record")
    return rows[-1].split()[0], record


def load_runs(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            workload, record = parse_run(path)
            runs.setdefault(workload, []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Classifies one workload x metric; returns (verdict, wins, pairs)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    mp = statistics.median(parent)
    mc = statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (mc - mp)
    if len(pairs) >= 10 and wins * 10 >= 9 * len(pairs) and gain > q3 - q1:
        return "improved", wins, len(pairs)
    if -gain > bound * abs(mp):
        return "worse", wins, len(pairs)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if mp != 0 and (q3 - q1) / abs(mp) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def compare(parent_runs, change_runs, metrics, out=sys.stdout):
    """Prints one row per workload x metric; returns the exit status."""
    status = 0
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for workload, records in sorted(runs.items()):
            bad = sum(1 for r in records if not r.get("correct", False))
            if bad:
                print(f"{side} {workload}: {bad} run(s) reported incorrect output",
                      file=out)
                status = 1
    print(f"{'workload':<14} {'metric':<16} {'parent':>14} {'change':>14} "
          f"{'delta':>8} {'wins':>7}  verdict", file=out)
    for workload in sorted(set(parent_runs) | set(change_runs)):
        for m in metrics:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in parent_runs.get(workload, [])
                 if name in r.get("metrics", {})]
            c = [r["metrics"][name]["value"] for r in change_runs.get(workload, [])
                 if name in r.get("metrics", {})]
            if not p or not c:
                print(f"{workload:<14} {name:<16} {'-':>14} {'-':>14} {'-':>8} "
                      f"{'-':>7}  missing", file=out)
                status = 1
                continue
            v, wins, pairs = verdict(p, c, m["better"], m["bound"])
            mp, mc = statistics.median(p), statistics.median(c)
            delta = (mc - mp) / abs(mp) if mp else 0.0
            print(f"{workload:<14} {name:<16} {mp:>14.6g} {mc:>14.6g} "
                  f"{delta:>+8.2%} {wins:>3}/{pairs:<3}  {v}", file=out)
            if v == "worse":
                status = 1
    return status


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="directory of parent runs")
    ap.add_argument("--change", required=True, help="directory of change runs")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                        "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    return compare(load_runs(args.parent), load_runs(args.change), metrics)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

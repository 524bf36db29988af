"""Compares two BENCH_e2e.json files: parent (A) against change (B).

    python3 bench/e2e/compare.py A.json B.json
    python3 bench/e2e/compare.py BENCH_e2e.json:0 BENCH_e2e.json:1

`FILE:K` selects set K of a file. Untraced rows of A and B are paired in
set order. For every end-to-end metric of BENCHMARK.json and every
workload the verdict is:

  improved    at least 10 pairs, B better in at least 9/10 of them (ties
              count for neither), and the medians differ by more than A's
              interquartile range;
  regressed   B's median worse than A's by more than the metric's bound;
  unresolved  A's own spread (IQR / median) is wider than the bound, unless
              every B run reads better than every A run;
  unchanged   otherwise.

Exits 1 if anything regressed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(arg):
    path, _, set_index = arg.rpartition(":")
    if not path or not set_index.isdigit() or not os.path.exists(path):
        path, set_index = arg, None
    with open(path) as f:
        rows = [r for r in json.load(f) if r.get("section") == "run" and not r["traced"]]
    if set_index is not None:
        rows = [r for r in rows if r["set"] == int(set_index)]
    values = {}
    for row in sorted(rows, key=lambda r: r["set"]):
        for name, metric in row["metrics"].items():
            values.setdefault((row["workload"], name), []).append(metric["value"])
    return values


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(a, b, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / med_a if med_a else 0.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (med_b - med_a) < 0
            and abs(med_b - med_a) > iqr(a)):
        return "improved", worse
    all_better = max(sign * y for y in b) < min(sign * x for x in a)
    if med_a and iqr(a) / abs(med_a) > bound and not all_better:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    return "unchanged", worse


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    a, b = load(sys.argv[1]), load(sys.argv[2])
    workloads = sorted({w for w, _ in a} & {w for w, _ in b})
    regressed = False
    print("%-12s %-18s %12s %12s %8s  %s" % ("workload", "metric", "A median",
                                              "B median", "worse", "verdict"))
    for workload in workloads:
        for m in metrics:
            key = (workload, m["name"])
            if key not in a or key not in b:
                continue
            result, worse = verdict(a[key], b[key], m["better"], m["bound"])
            regressed = regressed or result == "regressed"
            print("%-12s %-18s %12.5g %12.5g %+7.1f%%  %s (n=%d/%d, bound %g)" % (
                workload, m["name"], statistics.median(a[key]),
                statistics.median(b[key]), 100 * worse, result, len(a[key]),
                len(b[key]), m["bound"]))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

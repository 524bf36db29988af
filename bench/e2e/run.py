"""Runs every bench_e2e workload and records the rows in BENCH_e2e.json.

Called by bench/e2e/run.sh after it has built bench_e2e:

    bench/e2e/run.sh [--seed N] [--trace PATH] [--smoke] [--sets K] [--out FILE]

Each workload runs in its own process. A set runs every workload once;
odd-numbered sets run them in reverse order, so drift on the host does
not always land on the same workload. With --trace PATH one more set runs
traced and its per-workload traces are merged into PATH (Chrome
trace-event format: open it at https://ui.perfetto.dev). The output file
is a JSON array: a meta row, then one row per (set, workload). Exits 1 if
any run failed or any correctness check failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["dblp_paper", "adult_1e5", "mnist_join", "serve_dblp"]


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_one(args, workload, seconds, traced):
    cmd = [args.bin, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0",
           "--out-dir", args.work_dir]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    row_path = os.path.join(args.work_dir, "row_%s.json" % workload)
    if proc.returncode not in (0, 1) or not os.path.exists(row_path):
        print("bench_e2e %s exited %d" % (workload, proc.returncode), file=sys.stderr)
        return None
    with open(row_path) as f:
        row = json.load(f)
    os.remove(row_path)
    return row


def merge_traces(work_dir, path):
    events = []
    for pid, workload in enumerate(WORKLOADS, start=1):
        part = os.path.join(work_dir, "trace_%s.json" % workload)
        if not os.path.exists(part):
            continue
        with open(part) as f:
            trace = json.load(f)
        os.remove(part)
        events.append({"ph": "M", "pid": pid, "name": "process_name",
                       "args": {"name": workload}})
        for event in trace["traceEvents"]:
            event["pid"] = pid
            events.append(event)
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


def print_table(title, rows, key):
    names = []
    for row in rows:
        for name in row[key]:
            if name not in names:
                names.append(name)
    print("\n== %s ==" % title)
    print("%-32s" % "metric" + "".join("%16s" % w for w in WORKLOADS))
    for name in names:
        cells = []
        for workload in WORKLOADS:
            values = [r[key][name]["value"] for r in rows
                      if r["workload"] == workload and name in r[key]]
            cells.append("%16.5g" % statistics.median(values) if values else "%16s" % "-")
        unit = next(r[key][name]["unit"] for r in rows if name in r[key])
        print("%-32s" % ("%s (%s)" % (name, unit)) + "".join(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", metavar="PATH")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", default="BENCH_e2e.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = 0.5 if args.smoke else benchmark["run_seconds"]

    rows, ok = [], True
    plan = [(s, False) for s in range(args.sets)]
    if args.trace:
        plan.append((args.sets, True))
    for set_index, traced in plan:
        order = WORKLOADS if set_index % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            row = run_one(args, workload, seconds, traced)
            if row is None:
                ok = False
                continue
            row["set"] = set_index
            rows.append(row)
            ok = ok and row["correct"]
            failed = [name for name, passed in row["checks"].items() if not passed]
            print("set %d %-12s %s%s" % (set_index, workload,
                                         "traced " if traced else "",
                                         "ok" if row["correct"] else
                                         "FAILED " + " ".join(failed)),
                  file=sys.stderr)
    if args.trace:
        merge_traces(args.work_dir, args.trace)

    meta = {"section": "meta", "git_sha": git_sha(), "seed": args.seed,
            "seconds": seconds, "smoke": args.smoke}
    for row in rows:
        row["section"] = "run"
    with open(args.out, "w") as f:
        json.dump([meta] + rows, f, indent=1)
        f.write("\n")

    untraced = [r for r in rows if not r["traced"]]
    traced_rows = [r for r in rows if r["traced"]]
    if untraced:
        print_table("end-to-end (median over %d untraced set(s))" % args.sets,
                    untraced, "metrics")
    if traced_rows:
        print_table("per layer (traced set)", traced_rows, "per_layer")
    if rows:
        cores = [r["meta"]["effective_cores"] for r in rows]
        print("\nhost: %s; effective_cores %.2f-%.2f over the runs" % (
            json.dumps({k: v for k, v in rows[0]["meta"].items() if k != "effective_cores"}),
            min(cores), max(cores)))
    print("rows written to %s" % args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

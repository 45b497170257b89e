#!/usr/bin/env python3
"""Interleaved parent/change pairs of e2ebench runs, as one BENCH_*.json.

Runs `python3 e2ebench/run.py --trace 0` in two checkouts, alternating
which one goes first in each pair (pair 0: parent first, pair 1: change
first, ...), so a drift of the host's speed during the runs hits both
sides alike. Every end-to-end metric declared in BENCHMARK.json is
summarized per workload: the median and quartiles of each side, the
number of pairs the change won (strictly better in the metric's declared
direction), and the seed. Output uses the shared envelope
{"schema", "meta", "entries"} read by tools/bench_report.py.

Usage:
  python3 tools/bench_pairs.py --parent DIR --change DIR \\
      --workload paper_serial:10,nulls_parallel:4 --seed 23 --seconds 35 \\
      --out BENCH_<n>.json

A workload may carry its own pair count after a colon (default --pairs).
Each checkout builds its own binary under .bench_build/ on first use.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(checkout, workload, seed, seconds):
    """One untraced run; returns the result JSON (the last stdout line)."""
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(workload, seed, metrics, runs):
    """One entry per declared metric from [(parent_json, change_json)]."""
    entries = []
    for m in metrics:
        name = m["name"]
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        lower = m["better"] == "lower"
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        ties = sum(1 for p, c in zip(parent, change) if c == p)
        p1, p2, p3 = quartiles(parent)
        c1, c2, c3 = quartiles(change)
        entries.append({
            "name": f"{workload}/{name}", "workload": workload,
            "metric": name, "unit": m["unit"], "better": m["better"],
            "seed": seed, "pairs": len(runs), "wins": wins, "ties": ties,
            "parent_median": p2, "parent_q1": p1, "parent_q3": p3,
            "change_median": c2, "change_q1": c1, "change_q3": c3,
            "change_frac": (c2 - p2) / p2 if p2 else None,
            "parent_values": parent, "change_values": change,
        })
    failed = [(p["failed"], c["failed"]) for p, c in runs]
    entries.append({"name": f"{workload}/failed", "workload": workload,
                    "seed": seed, "pairs": len(runs),
                    "parent_failed": sum(f for f, _ in failed),
                    "change_failed": sum(f for _, f in failed)})
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", required=True,
                        help="comma list of name[:pairs]")
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    entries = []
    plan = []
    for item in args.workload.split(","):
        name, _, pairs = item.partition(":")
        plan.append((name, int(pairs) if pairs else args.pairs))
    for workload, pairs in plan:
        runs = []
        for k in range(pairs):
            order = [args.parent, args.change]
            if k % 2 == 1:
                order.reverse()
            got = {d: run_once(d, workload, args.seed, args.seconds)
                   for d in order}
            runs.append((got[args.parent], got[args.change]))
            p50 = [r["metrics"]["latency_p50_ms"]["value"] for r in runs[-1]]
            print(f"{workload} pair {k + 1}/{pairs}: latency_p50_ms "
                  f"parent {p50[0]:.4g} change {p50[1]:.4g}", file=sys.stderr)
        entries += summarize(workload, args.seed, metrics, runs)

    doc = {
        "schema": "nestra-e2e-pairs-v1",
        "meta": {"seed": args.seed, "seconds": args.seconds,
                 "order": "alternating, parent first in pair 1",
                 "workloads": {w: p for w, p in plan},
                 "machine": platform.machine(), "nproc": os.cpu_count()},
        "entries": entries,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

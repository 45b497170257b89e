#!/usr/bin/env python3
"""Smoke check of the end-to-end benchmark itself.

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
asserts that the result line reports every declared metric, finite and with
its declared unit, and that no answer disagreed with the oracle. Run from
the repository root:

    python3 e2ebench/smoke.py [--seconds 1] [--seed 1]
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(workload, trace, declared, seconds, seed):
    cmd = ["python3", os.path.join("e2ebench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        return ["exit code %d" % proc.returncode]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0:
        problems.append("failed_frac is not 0: %s of %s statements failed"
                        % (result.get("failed"), result.get("attempted")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(declared):
        problems.append("metric names differ: extra %s, missing %s" % (
            sorted(set(metrics) - set(declared)),
            sorted(set(declared) - set(metrics))))
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append("%s: unit %r, declared %r" % (name, m.get("unit"),
                                                          unit))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not finite" % (name, value))
        printed = [l for l in lines[:-1] if l.split("] ", 1)[-1].startswith(
            name + " ")]
        if not printed or not printed[0].rstrip().endswith(" " + unit):
            problems.append("%s: not printed with its unit" % name)
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", default="1")
    parser.add_argument("--seed", default="1")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in modes.items():
            problems = check_run(workload, trace, declared, args.seconds,
                                 args.seed)
            status = "ok" if not problems else "FAIL"
            print("%-16s trace=%d %s" % (workload, trace, status))
            for p in problems:
                print("    " + p)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

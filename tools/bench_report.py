#!/usr/bin/env python3
"""Aggregate BENCH_*.json artifacts into one perf-trajectory report.

The bench binaries and CI merge steps each emit their own schema
(nestra-bench-trajectory-v1, nestra-bench-compare-v1,
nestra-two-valued-compare-v1, nestra-stats-join-compare-v1, ...). Every
schema shares the envelope {"schema": ..., "meta": {...}, "entries":
[{...}]} with a "name" per entry, so this report is schema-agnostic: it renders
each file as one markdown table (columns = union of entry keys, in
first-seen order) plus a cross-file summary of speedups and identity
checks, and writes the same data as JSON
(schema "nestra-bench-report-v1") for downstream tooling.

Usage:
  python3 tools/bench_report.py [--dir DIR] [--out-md BENCH_REPORT.md]
                                [--out-json BENCH_REPORT.json] [--strict]
                                [--bounds BENCHMARK.json]

--strict exits nonzero when any entry reports identical=false (the
per-file CI gates do this too; the flag lets the report stand alone).

--bounds reads the end-to-end metrics of BENCHMARK.json and checks every
parent/change entry (tools/bench_pairs.py, "nestra-e2e-pairs-v1"): it
exits nonzero when a metric's change median is worse than the parent
median by more than the metric's relative `bound`.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_bench_files(directory):
    """Returns [(filename, doc)] for every parseable BENCH_*.json."""
    docs = []
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"warning: skipping {path}: {err}", file=sys.stderr)
            continue
        if not isinstance(doc, dict) or "entries" not in doc:
            print(f"warning: skipping {path}: no 'entries' array",
                  file=sys.stderr)
            continue
        docs.append((os.path.basename(path), doc))
    return docs


def entry_columns(entries):
    """Union of entry keys in first-seen order, 'name' always first."""
    columns = ["name"]
    for entry in entries:
        for key in entry:
            if key not in columns:
                columns.append(key)
    return columns


def format_cell(value):
    if isinstance(value, bool):
        return "yes" if value else "**NO**"
    if isinstance(value, float):
        return f"{value:.4g}"
    if value is None:
        return ""
    return str(value)


def file_summary(name, doc):
    entries = doc["entries"]
    speedups = [e["speedup"] for e in entries
                if isinstance(e.get("speedup"), (int, float))]
    checked = [e for e in entries if isinstance(e.get("identical"), bool)]
    summary = {
        "file": name,
        "schema": doc.get("schema", "?"),
        "entries": len(entries),
        "identity_checked": len(checked),
        "identity_failures": sum(1 for e in checked if not e["identical"]),
    }
    if speedups:
        summary["speedup_min"] = min(speedups)
        summary["speedup_median"] = statistics.median(speedups)
        summary["speedup_max"] = max(speedups)
    return summary


def bound_violations(docs, bench):
    """[(file, entry name, relative worsening, bound)] beyond the bounds."""
    bounds = {m["name"]: m for m in bench.get("end_to_end", [])}
    out = []
    for name, doc in docs:
        for e in doc["entries"]:
            m = bounds.get(e.get("metric"))
            parent, change = e.get("parent_median"), e.get("change_median")
            if m is None or not isinstance(parent, (int, float)) or \
                    not isinstance(change, (int, float)):
                continue
            worse = change - parent if m["better"] == "lower" \
                else parent - change
            frac = worse / abs(parent) if parent else (1.0 if worse > 0
                                                       else 0.0)
            if frac > m["bound"]:
                out.append((name, e["name"], frac, m["bound"]))
    return out


def markdown_table(columns, rows):
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def render_markdown(docs, summaries):
    out = ["# Bench trajectory report", ""]
    if not docs:
        out.append("No BENCH_*.json files found.")
        return "\n".join(out) + "\n"

    out.append("## Summary")
    out.append("")
    columns = ["file", "schema", "entries", "identity", "speedup (min/med/max)"]
    rows = []
    for s in summaries:
        if s["identity_checked"]:
            identity = (f"{s['identity_checked'] - s['identity_failures']}"
                        f"/{s['identity_checked']} ok")
            if s["identity_failures"]:
                identity = f"**{identity}**"
        else:
            identity = "-"
        if "speedup_min" in s:
            speed = (f"{s['speedup_min']:.2f}x / {s['speedup_median']:.2f}x"
                     f" / {s['speedup_max']:.2f}x")
        else:
            speed = "-"
        rows.append([s["file"], s["schema"], str(s["entries"]), identity,
                     speed])
    out.append(markdown_table(columns, rows))
    out.append("")

    for name, doc in docs:
        out.append(f"## {name}")
        out.append("")
        meta = doc.get("meta")
        if isinstance(meta, dict) and meta:
            rendered = ", ".join(f"{k}={v}" for k, v in meta.items())
            out.append(f"`{doc.get('schema', '?')}` — {rendered}")
        else:
            out.append(f"`{doc.get('schema', '?')}`")
        out.append("")
        entries = doc["entries"]
        if not entries:
            out.append("(no entries)")
            out.append("")
            continue
        columns = entry_columns(entries)
        rows = [[format_cell(e.get(c)) for c in columns] for e in entries]
        out.append(markdown_table(columns, rows))
        out.append("")
    return "\n".join(out) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=".",
                        help="directory holding BENCH_*.json (default: .)")
    parser.add_argument("--out-md", default="BENCH_REPORT.md")
    parser.add_argument("--out-json", default="BENCH_REPORT.json")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero on any identical=false entry")
    parser.add_argument("--bounds", metavar="BENCHMARK_JSON",
                        help="exit nonzero when a parent/change median "
                             "moves beyond the metric's bound")
    args = parser.parse_args()

    docs = load_bench_files(args.dir)
    summaries = [file_summary(name, doc) for name, doc in docs]

    markdown = render_markdown(docs, summaries)
    with open(args.out_md, "w") as f:
        f.write(markdown)

    report = {
        "schema": "nestra-bench-report-v1",
        "files": [
            {"file": name, "schema": doc.get("schema", "?"),
             "meta": doc.get("meta"), "entries": doc["entries"]}
            for name, doc in docs
        ],
        "summary": summaries,
    }
    with open(args.out_json, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    total_entries = sum(s["entries"] for s in summaries)
    failures = sum(s["identity_failures"] for s in summaries)
    print(f"{len(docs)} bench files, {total_entries} entries -> "
          f"{args.out_md}, {args.out_json}")
    status = 0
    if failures:
        print(f"{failures} identity failure(s)", file=sys.stderr)
        if args.strict:
            status = 1
    if args.bounds:
        with open(args.bounds) as f:
            bench = json.load(f)
        violations = bound_violations(docs, bench)
        for file, entry, frac, bound in violations:
            print(f"{file}: {entry} worse by {frac:.1%} (bound {bound:.0%})",
                  file=sys.stderr)
        print(f"bounds: {len(violations)} metric(s) beyond their bound")
        if violations:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

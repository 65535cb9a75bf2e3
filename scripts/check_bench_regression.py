#!/usr/bin/env python3
"""Bench-regression guard for scripts/verify.sh.

Compares a fresh BENCH_core.json against the checked-in baseline on the
guarded benchmarks and fails when wall time per op regresses more than the
threshold. The guard is about catching accidental hot-path regressions in
review, not about enforcing absolute numbers.

The fresh run comes from this machine, moments earlier inside verify.sh.
The baseline is whatever BENCH_core.json was checked in, so it may come from
another host. A >15% ns_per_op swing on a pinned-iteration-count benchmark
reads as a code change only when both files come from the same machine.
The guard therefore prints both files' provenance (git SHA, CPU model,
hardware and usable threads, timestamp) above its verdicts, and says so
when the CPU model or a thread count differs: then the verdicts measure
the hosts as well as the code. A row that ran more shard threads than its
file's usable_threads is marked non-scaling, per file: its time measures
threads taking turns on fewer cores, not parallel speed-up. Skip with
verify.sh --skip-bench-guard on busy/shared hardware.

Usage:
  check_bench_regression.py BASELINE FRESH --bench NAME [--bench NAME ...]
      [--max-regression 0.15]
"""

import argparse
import json
import sys


# The meta fields that decide whether two runs ran on comparable hosts.
HOST_FIELDS = ("cpu_model", "hardware_threads", "usable_threads")


def load(path):
    """Returns (meta, benchmarks by bare name) of one BENCH_core.json."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    table = {}
    for record in doc.get("benchmarks", []):
        # Registered names may carry gbench suffixes ("/iterations:1");
        # index by the bare prefix so guard names stay stable.
        bare = record["name"].split("/")[0]
        table.setdefault(bare, record)
    return doc.get("meta", {}), table


def describe(label, path, meta):
    def field(name):
        return meta.get(name, "unknown")
    print(f"  {label} {path}: git {str(field('git_sha'))[:12]}, "
          f"{field('cpu_model')}, {field('hardware_threads')} hardware / "
          f"{field('usable_threads')} usable threads, "
          f"{field('timestamp_utc')}")


def non_scaling(record, meta):
    """Returns a mark when the row ran more threads than its host could
    run at once, else None."""
    threads, usable = record.get("threads"), meta.get("usable_threads")
    if isinstance(threads, int) and isinstance(usable, int) and threads > usable:
        return f"non-scaling ({threads} threads, {usable} usable)"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--bench", action="append", required=True,
                        dest="benches")
    parser.add_argument("--max-regression", type=float, default=0.15)
    opts = parser.parse_args()

    baseline_meta, baseline = load(opts.baseline)
    fresh_meta, fresh = load(opts.fresh)
    describe("baseline", opts.baseline, baseline_meta)
    describe("fresh   ", opts.fresh, fresh_meta)
    differing = [name for name in HOST_FIELDS
                 if baseline_meta.get(name) != fresh_meta.get(name)]
    if differing:
        print(f"  hosts differ ({', '.join(differing)}): these verdicts "
              "compare machines as well as code")

    failures = []
    for name in opts.benches:
        if name not in baseline:
            failures.append(f"{name}: missing from baseline {opts.baseline} "
                            "(regenerate the checked-in BENCH_core.json)")
            continue
        if name not in fresh:
            failures.append(f"{name}: missing from fresh run {opts.fresh} "
                            "(benchmark renamed or filtered out?)")
            continue
        base_ns = float(baseline[name]["ns_per_op"])
        fresh_ns = float(fresh[name]["ns_per_op"])
        ratio = fresh_ns / base_ns if base_ns > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + opts.max_regression:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {base_ns:.0f} -> {fresh_ns:.0f} ns/op "
                f"({(ratio - 1.0) * 100:+.1f}%, limit "
                f"+{opts.max_regression * 100:.0f}%)")
        marks = [f"{label} {mark}" for label, mark in (
            ("baseline", non_scaling(baseline[name], baseline_meta)),
            ("fresh", non_scaling(fresh[name], fresh_meta))) if mark]
        suffix = f" [{'; '.join(marks)}]" if marks else ""
        print(f"  {name}: {base_ns:.0f} -> {fresh_ns:.0f} ns/op "
              f"({(ratio - 1.0) * 100:+.1f}%) {verdict}{suffix}")

    if failures:
        print("bench guard FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("  (intentional? re-capture the baseline from the repo root: "
              "./build/bench/micro_core --json=BENCH_core.json, commit "
              "BENCH_core.json — or pass --skip-bench-guard)",
              file=sys.stderr)
        return 1
    print("  bench guard OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

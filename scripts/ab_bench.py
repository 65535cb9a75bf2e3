#!/usr/bin/env python3
"""Same-host A/B verdicts for one livebench workload: a revision against the
working tree.

    scripts/ab_bench.py --base HEAD~1 --workload sim_push_10k
    scripts/ab_bench.py --base a5ca402 --workload udp_steady --pairs 10 \\
        --seconds 30 --first-seed 500

Exports REV with `git archive` into a temporary directory
(scripts/base_worktree.py), so nothing is written under `.git`. Each side's
`livebench/run.py` builds its own livebench, REV's and the working tree's in
two temporary build directories, on one untimed warm-up run per side. Then
it runs both sides for --pairs pairs. Both runs of a pair use the same seed
(--first-seed, then +1 per pair), and the side that runs first alternates
from pair to pair.

For every end-to-end metric in BENCHMARK.json it prints the base median and
quartiles, the change median, how many pairs the change won (ties count for
neither) and one verdict, the first of these that applies:

  equal                    every pair read the same on both sides
  gain                     the change won at least 9 in 10 pairs and its
                           median beats the base median by more than the
                           base quartile distance
  unresolved               the base quartile distance exceeds the metric's
                           BENCHMARK.json bound and not every change run
                           beats every base run
  regression beyond bound  the change median is worse than the base median
                           by more than the bound
  within bound             none of the above

A gain made while the change failed a larger share of its operations than
the base is printed as `gain not counted (more failed operations)`: fewer
completed operations can make a per-operation cost look lower.

With --trace 1 it compares the per-layer metrics of traced runs instead.
Those have no bound, so their verdict is `equal`, `gain`, `loss` (the base
won at least 9 in 10 pairs and its median is better by more than its
quartile distance) or `no clear difference`.

It also prints the operations each side attempted and failed, both
revisions (the base as the SHA REV resolved to; an export has no git
metadata to describe) and the host.

Exits 0 when no metric regressed beyond its bound, no run failed a
correctness gate and the change failed no larger share of its operations
than the base; 1 otherwise, and 2 when a side cannot be built or run.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from base_worktree import ROOT, base_worktree, fail

# The warm-up run builds its side's livebench first.
WARM_UP_TIMEOUT_S = 3600
RUN_TIMEOUT_S = 400


def run_once(source, build_dir, args, seed, seconds, timeout):
    """One livebench run; its result object (the run's last stdout line)."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    command = [sys.executable, os.path.join(source, "livebench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{source}: seed {seed} timed out")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{source}: seed {seed} exited {done.returncode} without a "
             f"result:\n{done.stderr[-2000:]}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def failed_share(runs):
    """Failed over attempted operations, summed over `runs`."""
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(metric, base, change, needed, more_failures=False):
    """(pairs the change won, verdict); `needed` wins make a gain, unless
    the change failed a larger share of operations (`more_failures`)."""
    lower = metric.get("better", "lower") == "lower"
    bound = metric.get("bound")
    q1, base_median, q3 = quartiles(base)
    spread = q3 - q1
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    losses = sum(1 for b, c in zip(base, change)
                 if (c > b if lower else c < b))
    worse_by = (statistics.median(change) - base_median) * (
        1 if lower else -1)
    if wins == 0 and losses == 0:
        return wins, "equal"
    if wins >= needed and -worse_by > spread:
        return wins, ("gain not counted (more failed operations)"
                      if more_failures else "gain")
    if bound is None:
        return wins, ("loss" if losses >= needed and worse_by > spread
                      else "no clear difference")
    limit = bound * abs(base_median)
    beats_all = (max(change) < min(base)) if lower else (
        min(change) > max(base))
    if spread > limit and not beats_all:
        # The base's own runs spread wider than the bound, so a median
        # this far off cannot be told from the noise either way.
        return wins, "unresolved"
    if worse_by > limit:
        return wins, "regression beyond bound"
    return wins, "within bound"


def describe(source):
    sha = subprocess.run(["git", "-C", source, "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "-C", source, "status", "--porcelain",
                            "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return sha + (" + uncommitted changes" if dirty else "")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    with base_worktree(args.base) as (tmp, base_src, base_sha):
        sources = {"base": base_src, "change": ROOT}
        builds = {side: os.path.join(tmp, f"{side}-build")
                  for side in sources}
        for side in ("base", "change"):
            print(f"==> building {side} livebench ({sources[side]}) and "
                  f"warming it up", flush=True)
            run_once(sources[side], builds[side], args, args.first_seed,
                     seconds=1, timeout=WARM_UP_TIMEOUT_S)

        results = {"base": [], "change": []}
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ("base", "change") if pair % 2 == 0 else (
                "change", "base")
            for side in order:
                results[side].append(
                    run_once(sources[side], builds[side], args, seed,
                             args.seconds, RUN_TIMEOUT_S))
            print(f"pair {pair + 1}/{args.pairs} (seed {seed}, "
                  f"{order[0]} first) done", flush=True)

        needed = -(-9 * args.pairs // 10)  # at least 9 in 10 pairs
        print(f"\nworkload {args.workload}: {args.pairs} pairs of "
              f"{args.seconds} s, seeds {args.first_seed}.."
              f"{args.first_seed + args.pairs - 1}, trace {args.trace}")
        print(f"base   {args.base} = {base_sha}")
        print(f"change working tree = {describe(ROOT)}")
        print(f"host   {platform.node()}, {os.cpu_count()} cpus, "
              f"{platform.machine()}, {platform.platform()}")
        header = (f"{'metric':40} {'unit':6} {'base q1':>11} {'base med':>11}"
                  f" {'base q3':>11} {'change med':>11} {'wins':>6}  verdict")
        print(header)
        more_failures = (failed_share(results["change"]) >
                         failed_share(results["base"]))
        regressed = False
        for metric in metrics:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in results["base"]]
            change = [r["metrics"][name]["value"] for r in results["change"]]
            q1, median, q3 = quartiles(base)
            wins, word = verdict(metric, base, change, needed, more_failures)
            regressed |= word == "regression beyond bound"
            print(f"{name:40} {metric['unit']:6} {q1:11.5g} {median:11.5g} "
                  f"{q3:11.5g} {statistics.median(change):11.5g} "
                  f"{wins:3}/{args.pairs:<2}  {word}")
        incorrect = 0
        for side in ("base", "change"):
            runs = results[side]
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            bad = sum(1 for r in runs if not r["correct"])
            incorrect += bad if side == "change" else 0
            print(f"{side:6} operations failed {failed} of {attempted} "
                  f"attempted; runs failing a correctness gate: {bad}")
        if more_failures:
            print("change failed a larger share of its operations than base")
        return 1 if regressed or incorrect or more_failures else 0


if __name__ == "__main__":
    sys.exit(main())

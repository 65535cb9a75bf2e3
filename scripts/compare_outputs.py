#!/usr/bin/env python3
"""Check that a change leaves every printed output of the repository alone.

    scripts/compare_outputs.py --base HEAD~1
    scripts/compare_outputs.py --base 1b62655 --chaos-seeds 5

Builds REV (exported with `git archive` into a temporary directory by
scripts/base_worktree.py, so nothing is written under `.git`) and the
working tree, both in Release, and runs on each side:

  * every bench under bench/ except micro_core, without arguments;
  * the examples quickstart, shared_calendar, trust_ratings, churn_storm,
    pgrid_catalogue, index_shell (stdin closed, so it runs its scripted
    demo), `model_cli --trajectory` and export_figures (its output plus
    every CSV it writes);
  * `updp2p-chaos --scenario S --sweep-seeds N` for every builtin scenario
    that both sides list.

Each output is compared as text, with its exit status appended and the
side's temporary directory masked. fig5_scalability's `wall ms` column is
masked too; nothing else is. The script prints `identical` or a unified
diff per output.

Both builds go to the temporary directory, and two outputs are produced at
a time. Exits 0 when every output is identical, 1 on any difference, 2 when
a side cannot be built.
"""
import argparse
import concurrent.futures
import difflib
import os
import re
import shutil
import subprocess
import sys

from base_worktree import ROOT, base_worktree, fail

RUN_TIMEOUT_S = 1800
PARALLEL_RUNS = 2
EXAMPLES = [
    ("quickstart", []),
    ("shared_calendar", []),
    ("trust_ratings", []),
    ("churn_storm", []),
    ("pgrid_catalogue", []),
    ("index_shell", []),
    ("model_cli", ["--trajectory"]),
]
CHAOS = "updp2p-chaos"


def benches(source):
    """Bench targets declared in `source`'s bench/CMakeLists.txt."""
    with open(os.path.join(source, "bench", "CMakeLists.txt"),
              encoding="utf-8") as handle:
        names = re.findall(r"^updp2p_add_bench\((\w+)\)", handle.read(), re.M)
    return [name for name in names if name != "micro_core"]


def build(source, build_dir, targets, jobs):
    for step in (["cmake", "-S", source, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "-j", str(jobs),
                  "--target", *targets]):
        result = subprocess.run(step, capture_output=True, text=True)
        if result.returncode != 0:
            tail = "\n".join((result.stdout + result.stderr).splitlines()[-30:])
            fail(f"build of {source} failed:\n{tail}")


def mask_fig5(text):
    """Blanks the `wall ms` cell of fig5_scalability's cross-check rows."""
    return re.sub(r"^(\s*R = \d+.*?)\s+\d+(\.\d+)?\s*$",
                  lambda m: m.group(1) + " <wall ms>", text, flags=re.M)


def run(side_dir, argv):
    """Runs `argv` in `side_dir`; its output, stderr and exit status."""
    try:
        result = subprocess.run(argv, cwd=side_dir, stdin=subprocess.DEVNULL,
                                capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S)
        text = result.stdout
        if result.stderr:
            text += "--- stderr ---\n" + result.stderr
        text += f"--- exit {result.returncode} ---\n"
    except subprocess.TimeoutExpired:
        text = f"--- timed out after {RUN_TIMEOUT_S} s ---\n"
    return text.replace(side_dir, "<side>")


def run_export_figures(side_dir, binary):
    out_dir = os.path.join(side_dir, "figures")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    text = run(side_dir, [binary, "--out", out_dir])
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
            text += f"=== {name} ===\n" + handle.read()
    return text


def jobs_for(side, side_dir, build_dir, bench_names, scenarios, seeds):
    """(output name, side, callable) for every output of one side."""
    work = []
    for name in bench_names:
        argv = [os.path.join(build_dir, "bench", name)]
        work.append((f"bench/{name}", side,
                     lambda argv=argv: run(side_dir, argv)))
    for name, args in EXAMPLES:
        argv = [os.path.join(build_dir, "examples", name), *args]
        label = " ".join([f"examples/{name}", *args])
        work.append((label, side, lambda argv=argv: run(side_dir, argv)))
    binary = os.path.join(build_dir, "examples", "export_figures")
    work.append(("examples/export_figures", side,
                 lambda: run_export_figures(side_dir, binary)))
    chaos = os.path.join(build_dir, "examples", CHAOS)
    for scenario in scenarios:
        argv = [chaos, "--scenario", scenario, "--sweep-seeds", str(seeds),
                "--data-root", os.path.join(side_dir, "chaos", scenario)]
        work.append((f"chaos/{scenario}", side,
                     lambda argv=argv: run(side_dir, argv)))
    return work


def builtin_scenarios(build_dir):
    listing = subprocess.run([os.path.join(build_dir, "examples", CHAOS),
                              "--list"], capture_output=True, text=True,
                             check=True).stdout
    return [line.split()[0] for line in listing.splitlines() if line.strip()]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree against")
    parser.add_argument("--chaos-seeds", type=int, default=20,
                        help="seeds per chaos builtin (default 20)")
    args = parser.parse_args()
    build_jobs = max(1, min(4, os.cpu_count() or 1))
    with base_worktree(args.base) as (tmp, base_src, base_rev):
        sides = {"base": os.path.join(tmp, "base-run"),
                 "head": os.path.join(tmp, "head-run")}
        for side_dir in sides.values():
            os.makedirs(side_dir)
        builds = {side: os.path.join(tmp, f"{side}-build")
                  for side in ("base", "head")}
        sources = {"base": base_src, "head": ROOT}
        bench_names = {side: benches(src) for side, src in sources.items()}
        for side in ("base", "head"):
            targets = bench_names[side] + [name for name, _ in EXAMPLES] + [
                "export_figures", CHAOS]
            print(f"==> building {side} ({sources[side]})", flush=True)
            build(sources[side], builds[side], targets, build_jobs)

        shared = [name for name in bench_names["head"]
                  if name in bench_names["base"]]
        for side in ("base", "head"):
            for name in bench_names[side]:
                if name not in shared:
                    print(f"skipped    bench/{name}: only in {side}")
        scenarios = {side: builtin_scenarios(builds[side]) for side in sides}
        common = [s for s in scenarios["head"] if s in scenarios["base"]]
        for side in ("base", "head"):
            for scenario in scenarios[side]:
                if scenario not in common:
                    print(f"skipped    chaos/{scenario}: only in {side}")

        work = []
        for side, side_dir in sides.items():
            work += jobs_for(side, side_dir, builds[side], shared, common,
                             args.chaos_seeds)
        outputs = {}
        with concurrent.futures.ThreadPoolExecutor(PARALLEL_RUNS) as pool:
            futures = {pool.submit(task): (name, side)
                       for name, side, task in work}
            for future in concurrent.futures.as_completed(futures):
                outputs[futures[future]] = future.result()

        names = list(dict.fromkeys(name for name, _, _ in work))
        differing = 0
        for name in names:
            base, head = outputs[(name, "base")], outputs[(name, "head")]
            if name == "bench/fig5_scalability":
                base, head = mask_fig5(base), mask_fig5(head)
            if base == head:
                print(f"identical  {name}")
                continue
            differing += 1
            print(f"DIFFERENT  {name}")
            sys.stdout.writelines(difflib.unified_diff(
                base.splitlines(keepends=True), head.splitlines(keepends=True),
                fromfile=f"{args.base}: {name}",
                tofile=f"working tree: {name}"))
        print(f"{len(names) - differing} of {len(names)} outputs identical "
              f"({args.base} = {base_rev[:12]} against the working tree)")
        return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

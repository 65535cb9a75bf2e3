#!/usr/bin/env python3
"""Build the live-cluster benchmark from source and run one workload.

    python3 livebench/run.py --workload udp_steady --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The benchmark (livebench/src) is configured
with CMake into $CARGO_TARGET_DIR (default .bench_build), built against the
repository's own src/, and run. Its text report goes to standard output; the
last line is one JSON object with `correct`, `attempted`, `failed` and the
metrics BENCHMARK.json names: the end-to-end ones, or with --trace 1 the
per-layer ones.

    python3 livebench/run.py --check

builds and runs the benchmark's own tests (reporter arithmetic, and the
digest gate on a healthy run and on the canary run that drops every pull
response).

Exits 0 on success, 1 when a correctness gate fails, and 2 when the
benchmark cannot be built or run.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"livebench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(targets):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", out, "-j", jobs, "--target", *targets]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(step)} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")
    return out


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown (not a git checkout)"


def check():
    out = build(["livebench", "livebench_tests"])
    done = subprocess.run(["ctest", "--test-dir", out, "--output-on-failure"],
                          check=False)
    return 0 if done.returncode == 0 else 1


def run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; BENCHMARK.json has {names}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    binary = os.path.join(build(["livebench"]), "livebench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(),
               "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"benchmark run failed: {error}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"benchmark exited {done.returncode} without a result")
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} ({metric['unit']}) missing or "
                 f"in another unit: {got}")
        metrics[metric["name"]] = got
    print("\n".join(lines[:-1]))
    print(json.dumps({"correct": result["correct"] and done.returncode == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if done.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.check:
        return check()
    if not args.workload:
        fail("--workload is required")
    spec = load_spec()
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Full verify flow: Release build, then the static-analysis leg
# (updp2p-lint + clang-tidy, docs/static-analysis.md), then tier-1 tests in
# Release (including the multi-process live harness, label
# `integration-live`), then an ASan+UBSan build that
# re-runs the test suite and a micro_core smoke pass (one quick iteration of
# every hot-path bench) under the sanitizers, then a TSan build that runs
# the concurrency-bearing suites (sweep pool, sharded rounds, sharded bus,
# golden determinism — including ShardInvariance at 8 threads) plus the
# event-loop/timer-queue runtime suites.
#
# After the Release ctest leg, `python3 livebench/run.py --check` builds the
# live benchmark (livebench/, its own CMake package over src/) and runs its
# tests, so a src/ change that breaks the benchmark's build fails here.
# Then a bench-regression guard re-runs the guarded hot-path benchmarks
# (BM_SimulatedUpdate10k, BM_BuildForwardListInto, BM_StoreAppend,
# BM_StoreReplay10k) and compares ns/op against the checked-in
# BENCH_core.json; a >15% regression fails the verify. The simulator row
# runs the frame path (one encode per fan-out, probe-classified duplicates,
# streamed first-receipt decodes), the one a codec or frame-path change
# degrades first; the Store rows guard the durable append (paid per
# receipt before the ack) and the crash-recovery replay pipeline. Opt out
# with --skip-bench-guard on busy or differently-provisioned machines.
#
# The deterministic chaos harness (docs/testing.md) runs its test suite as
# part of tier-1 (ctest label `chaos`). --chaos-seeds N adds a deeper leg:
# an N-seed sweep of every builtin scenario through the real updp2p-chaos
# binary, with the sweep parallelised across cores — any property
# violation fails the verify and prints the failing (scenario, seed) pair
# to replay.
#
# Usage: scripts/verify.sh [--skip-sanitizers] [--skip-bench-guard]
#                          [--update-lint-baseline] [--chaos-seeds N]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
SKIP_SAN=0
SKIP_BENCH_GUARD=0
UPDATE_LINT_BASELINE=0
CHAOS_SEEDS=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --skip-sanitizers) SKIP_SAN=1 ;;
    --skip-bench-guard) SKIP_BENCH_GUARD=1 ;;
    --update-lint-baseline) UPDATE_LINT_BASELINE=1 ;;
    --chaos-seeds) shift; CHAOS_SEEDS="${1:?--chaos-seeds needs a count}" ;;
    --chaos-seeds=*) CHAOS_SEEDS="${1#*=}" ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

echo "==> tier-1: Release build"
cmake --preset release
cmake --build --preset release -j "${JOBS}"

# Lint leg (docs/static-analysis.md). Runs before the test suites and the
# sanitizer legs so convention breaks fail fast; --skip-sanitizers does NOT
# skip it. updp2p-lint enforces the project rules (determinism,
# rng-discipline, iteration-order, wire-taint, probe-trust, shard-guard,
# assert-discipline, suppression-reason); findings are gated by
# tools/lint/lint-baseline.txt (stale entries fail — fixed code keeps its
# baseline honest) and the SARIF artifact lands at build/lint.sarif for CI
# consumers, shape-checked by scripts/check_lint_baseline.py. clang-tidy
# runs the curated .clang-tidy set over compile_commands.json when the
# binary exists, and is skipped with a notice otherwise (the container
# image has no clang frontend). The unit tests of scripts/ab_bench.py's
# verdict rules (stdlib unittest, no build needed) run with this leg, and so
# does tools/profile/selftest.sh: it compiles the LD_PRELOAD stack sampler
# and heap profiler (docs/benchmarks.md, "Profiling on this host") and
# checks both on a tiny program.
if [[ "${UPDATE_LINT_BASELINE}" == "1" ]]; then
  echo "==> lint: regenerating tools/lint/lint-baseline.txt"
  ./build/tools/lint/updp2p-lint --root . \
    --write-baseline tools/lint/lint-baseline.txt
fi
echo "==> lint: updp2p-lint over src/ bench/ examples/ (SARIF: build/lint.sarif)"
./build/tools/lint/updp2p-lint --root . \
  --baseline tools/lint/lint-baseline.txt \
  --format sarif --output build/lint.sarif
python3 scripts/check_lint_baseline.py build/lint.sarif
echo "==> lint: scripts/test_ab_bench.py (ab_bench.py verdict rules)"
python3 scripts/test_ab_bench.py
echo "==> lint: scripts/test_base_worktree.py (base revision export)"
python3 scripts/test_base_worktree.py
echo "==> lint: tools/profile/selftest.sh (profiler preloads build and run)"
tools/profile/selftest.sh build/profile
if command -v clang-tidy >/dev/null 2>&1; then
  echo "==> lint: clang-tidy (curated .clang-tidy) over compile_commands.json"
  mapfile -t TIDY_SOURCES < <(find src tools -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p build -quiet "${TIDY_SOURCES[@]}"
  else
    clang-tidy -p build --quiet "${TIDY_SOURCES[@]}"
  fi
else
  echo "==> lint: clang-tidy not found; skipping (.clang-tidy is the config)"
fi

echo "==> tier-1: Release ctest"
ctest --preset release -j "${JOBS}"

echo "==> livebench: build the live benchmark and run its tests"
python3 livebench/run.py --check

if [[ "${CHAOS_SEEDS}" -gt 0 ]]; then
  echo "==> chaos: ${CHAOS_SEEDS}-seed sweep over every builtin scenario"
  while read -r scenario _; do
    ./build/examples/updp2p-chaos --scenario "${scenario}" \
      --sweep-seeds "${CHAOS_SEEDS}" --threads "${JOBS}" \
      --data-root "build/chaos-sweep/${scenario}"
  done < <(./build/examples/updp2p-chaos --list)
fi

if [[ "${SKIP_BENCH_GUARD}" == "1" ]]; then
  echo "==> bench guard skipped (--skip-bench-guard)"
else
  echo "==> bench guard: guarded hot-path benches vs checked-in BENCH_core.json"
  ./build/bench/micro_core --json=build/BENCH_guard.json \
    "--benchmark_filter=^BM_SimulatedUpdate10k\$|^BM_BuildForwardListInto\$|^BM_StoreAppend\$|^BM_StoreReplay10k\$" \
    >/dev/null
  python3 scripts/check_bench_regression.py BENCH_core.json \
    build/BENCH_guard.json --bench BM_SimulatedUpdate10k \
    --bench BM_BuildForwardListInto \
    --bench BM_StoreAppend --bench BM_StoreReplay10k --max-regression 0.15
fi

if [[ "${SKIP_SAN}" == "1" ]]; then
  echo "==> sanitizers skipped (--skip-sanitizers)"
  exit 0
fi

echo "==> sanitizers: ASan+UBSan build + ctest + micro_core --smoke"
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "${JOBS}"
ctest --preset asan-ubsan -j "${JOBS}"
./build-asan/bench/micro_core --smoke

echo "==> sanitizers: TSan build + concurrency suites"
# The tsan test preset filters to the suites that actually spawn threads or
# drive the live event loop: the work-stealing sweep pool, the sharded
# round engine and bus, the golden-determinism suite (ShardInvariance
# drives 8 shard threads; ChurnedCluster steps a LoopbackCluster), the
# runtime layer (timer queue, PeerRuntime, LoopbackCluster and its golden,
# inproc/UDP transports — the UDP suite exercises real kernel socket I/O
# under TSan), the chaos engine (threaded seed sweeps over LoopbackCluster),
# and the durable-store suites (PeerRuntime owns a
# ReplicaStore, so the WAL/snapshot/recovery + fuzz paths run under all
# three sanitizer legs), and ChunkedPeerSet's threaded test (copies of one
# set written and dropped on several threads: the copy-on-write bitmap
# buffers' atomic counts and acquire-ordered unshare check).
cmake --preset tsan
cmake --build --preset tsan -j "${JOBS}" \
  --target common_tests sim_tests net_tests runtime_tests \
  runtime_alloc_tests store_tests chaos_tests
ctest --preset tsan -j "${JOBS}"

echo "==> verify OK"

// Parallel seed sweeps.
//
// Every evaluation in this repository averages independent simulation runs
// over seeds. Each run owns its simulator (no shared mutable state), so a
// sweep is embarrassingly parallel; runs are drained from SweepPool's
// persistent workers via an atomic work-stealing index (no per-run thread
// spawn, no head-of-line blocking) and the per-run results come back in seed
// order, not completion order, so anything merged from them is independent
// of scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ensure.hpp"
#include "sim/sweep_pool.hpp"

namespace updp2p::sim {

/// Runs `body(seed)` for seeds base+1 .. base+runs in parallel and returns
/// the results ordered by seed. `Body` must be a pure function of the seed
/// (it may build and run entire simulators internally).
template <typename Result>
std::vector<Result> sweep_seeds(std::uint64_t base_seed, unsigned runs,
                                const std::function<Result(std::uint64_t)>&
                                    body,
                                unsigned max_threads = 0) {
  UPDP2P_ENSURE(runs > 0, "a sweep needs at least one run");
  std::vector<Result> results(runs);
  SweepPool::shared().run(runs, max_threads, [&](unsigned index) {
    results[index] = body(base_seed + index + 1);
  });
  return results;
}

}  // namespace updp2p::sim

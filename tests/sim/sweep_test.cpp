#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "sim/round_simulator.hpp"
#include "sim/sweep_pool.hpp"

namespace updp2p::sim {
namespace {

TEST(Sweep, ResultsOrderedBySeed) {
  const auto results = sweep_seeds<std::uint64_t>(
      100, 16, [](std::uint64_t seed) { return seed; }, 4);
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], 101 + i);
  }
}

TEST(Sweep, RunsEveryBodyExactlyOnce) {
  std::atomic<int> calls{0};
  (void)sweep_seeds<int>(0, 32, [&calls](std::uint64_t) {
    return ++calls;
  });
  EXPECT_EQ(calls.load(), 32);
}

TEST(Sweep, SingleThreadFallback) {
  const auto results = sweep_seeds<std::uint64_t>(
      0, 4, [](std::uint64_t seed) { return seed * 2; }, 1);
  EXPECT_EQ(results, (std::vector<std::uint64_t>{2, 4, 6, 8}));
}

TEST(Sweep, DeterministicRegardlessOfThreadCount) {
  const auto body = [](std::uint64_t seed) {
    RoundSimConfig config;
    config.population = 300;
    config.gossip.estimated_total_replicas = 300;
    config.gossip.fanout_fraction = 0.05;
    config.reconnect_pull = false;
    config.round_timers = false;
    config.seed = seed;
    auto simulator = make_push_phase_simulator(config, 0.3, 1.0);
    return simulator->propagate_update();
  };
  const auto aggregate = [&body](unsigned threads) {
    AggregateMetrics result;
    for (const auto& run : sweep_seeds<RunMetrics>(7'000, 6, body, threads)) {
      result.add(run);
    }
    return result;
  };
  const auto serial = aggregate(1);
  const auto parallel = aggregate(8);
  EXPECT_DOUBLE_EQ(serial.messages_per_initial_online.mean(),
                   parallel.messages_per_initial_online.mean());
  EXPECT_DOUBLE_EQ(serial.final_aware_fraction.mean(),
                   parallel.final_aware_fraction.mean());
}

TEST(Sweep, BackToBackJobsRunEachIndexExactlyOnce) {
  // Regression: a worker lingering in the pool's drain loop after job N
  // completed must not claim indices from (or over-count completions of)
  // job N+1. Tiny jobs published back-to-back maximise that overlap.
  auto& pool = SweepPool::shared();
  std::vector<std::atomic<unsigned>> hits(16);
  for (int job = 0; job < 500; ++job) {
    const unsigned count = 1 + static_cast<unsigned>(job % 16);
    for (auto& h : hits) h.store(0);
    pool.run(count, 0,
             [&hits](unsigned index) { hits[index].fetch_add(1); });
    for (unsigned i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), i < count ? 1u : 0u)
          << "job " << job << " index " << i;
    }
  }
}

TEST(Sweep, RejectsZeroRuns) {
  EXPECT_DEATH((void)sweep_seeds<int>(0, 0, [](std::uint64_t) { return 0; }),
               "at least one");
}

}  // namespace
}  // namespace updp2p::sim

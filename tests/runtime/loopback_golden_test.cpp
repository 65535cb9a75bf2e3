// Golden determinism for the live runtime layer (ISSUE 3 acceptance): a
// LoopbackCluster run — full PeerRuntimes, real codec bytes, timer wheels,
// retry timers — over the deterministic inproc network must reproduce a
// pinned outcome exactly. If any of these numbers moves, the runtime's
// behaviour changed; re-pin deliberately, never casually.
#include <gtest/gtest.h>

#include "runtime/loopback_cluster.hpp"

namespace updp2p::runtime {
namespace {

LoopbackClusterConfig golden_config() {
  LoopbackClusterConfig config;
  config.population = 12;
  config.runtime.seed = 0x60D7E57;
  config.runtime.round_duration = 0.5;
  config.runtime.gossip.fanout_fraction = 0.3;
  config.runtime.gossip.estimated_total_replicas = 12;
  config.runtime.gossip.acks.enabled = true;
  config.runtime.retry.initial_timeout = 0.2;
  config.runtime.retry.max_attempts = 4;
  config.network.loss_probability = 0.15;
  config.network.latency = std::make_shared<net::UniformLatency>(0.01, 0.12);
  return config;
}

struct GoldenOutcome {
  bool converged = false;
  common::SimTime end_time = 0.0;
  std::size_t aware = 0;
  RuntimeStats totals;
};

GoldenOutcome run_golden() {
  LoopbackCluster cluster(golden_config());
  // Two peers churn out mid-push and come back, exercising the offline-drop
  // and reconnect-pull paths inside the pinned run.
  const auto id =
      cluster.publish(common::PeerId(0), "golden-key", "golden-payload");
  EXPECT_TRUE(id.has_value());
  cluster.set_online(common::PeerId(4), false);
  cluster.set_online(common::PeerId(9), false);
  cluster.run_until(3.0);
  cluster.set_online(common::PeerId(4), true);
  cluster.set_online(common::PeerId(9), true);

  GoldenOutcome outcome;
  outcome.converged = cluster.run_until_aware(*id, 60.0);
  outcome.end_time = cluster.now();
  outcome.aware = cluster.aware_count(*id);
  outcome.totals = cluster.totals();
  return outcome;
}

TEST(LoopbackGolden, RunIsSelfConsistentAcrossRebuilds) {
  const GoldenOutcome first = run_golden();
  const GoldenOutcome second = run_golden();
  EXPECT_EQ(first.converged, second.converged);
  EXPECT_DOUBLE_EQ(first.end_time, second.end_time);
  EXPECT_EQ(first.aware, second.aware);
  EXPECT_EQ(first.totals.datagrams_out, second.totals.datagrams_out);
  EXPECT_EQ(first.totals.retransmits, second.totals.retransmits);
  EXPECT_EQ(first.totals.retries_cancelled, second.totals.retries_cancelled);
  EXPECT_EQ(first.totals.retries_exhausted, second.totals.retries_exhausted);
  EXPECT_EQ(first.totals.decode_errors, second.totals.decode_errors);
}

TEST(LoopbackGolden, PinnedOutcome) {
  const GoldenOutcome outcome = run_golden();
  EXPECT_TRUE(outcome.converged);
  EXPECT_EQ(outcome.aware, 12u);
  // Pinned fingerprint of the whole run (see file comment). The run covers
  // every interesting path: retransmissions through loss, ack-cancelled
  // retries, exhausted budgets against the two offline peers, and the
  // reconnect pull that brings them back.
  EXPECT_EQ(outcome.totals.datagrams_out, 78u);
  EXPECT_EQ(outcome.totals.retransmits, 38u);
  EXPECT_EQ(outcome.totals.retries_cancelled, 12u);
  EXPECT_EQ(outcome.totals.retries_exhausted, 7u);
  EXPECT_EQ(outcome.totals.decode_errors, 0u);
  // Zero-copy invariants of the pooled send path: encodes land in recycled
  // buffers once the pool is warm, and a retransmission NEVER re-encodes —
  // it resends the exact bytes its PendingSend owns.
  EXPECT_GT(outcome.totals.frames_reused, 0u);
  EXPECT_EQ(outcome.totals.retransmit_reencodes, 0u);
  EXPECT_DOUBLE_EQ(outcome.end_time, 3.1999999999999993);
}

}  // namespace
}  // namespace updp2p::runtime

// End-to-end integration of the hybrid push/pull protocol: multiple
// updates, heavy churn, deletions, conflicting writers — asserting the
// paper's headline property: eventual quasi-consistency with probabilistic
// guarantees, achieved with push for bulk dissemination and pull for
// recovery.
#include <gtest/gtest.h>

#include "analysis/forward_probability.hpp"
#include "runtime/loopback_cluster.hpp"
#include "sim/round_simulator.hpp"

namespace updp2p {
namespace {

using common::PeerId;

/// A continuous-time cluster without a retransmission layer, with the
/// half-round message latency the paper's continuous-time rows use.
runtime::LoopbackClusterConfig cluster_config(std::size_t population,
                                              std::uint64_t seed) {
  runtime::LoopbackClusterConfig config;
  config.population = population;
  config.network.latency = std::make_shared<net::ConstantLatency>(0.5);
  config.runtime.retry.max_attempts = 1;
  config.runtime.gossip.estimated_total_replicas = population;
  config.runtime.seed = seed;
  return config;
}

/// Publishes from a random (preferably confident) online peer.
std::optional<version::VersionId> publish_any(
    runtime::LoopbackCluster& cluster, std::string_view key,
    std::string payload) {
  const auto writer = cluster.pick_writer();
  if (!writer) return std::nullopt;
  return cluster.publish(*writer, key, std::move(payload));
}

TEST(HybridIntegration, SequentialUpdatesConvergeUnderChurn) {
  auto config = cluster_config(150, 7);
  config.sessions.emplace(30.0, 90.0);  // 25% availability
  config.runtime.gossip.fanout_fraction = 0.07;
  config.runtime.gossip.forward_probability = analysis::pf_geometric(0.9);
  config.runtime.gossip.pull.contacts_per_attempt = 3;
  config.runtime.gossip.pull.no_update_timeout = 20;
  runtime::LoopbackCluster cluster(config);

  std::optional<version::VersionId> latest;
  for (const auto& [at, payload] : {std::pair{5.0, "v1"}, std::pair{100.0, "v2"},
                                    std::pair{200.0, "v3"}}) {
    cluster.run_until(at);
    latest = publish_any(cluster, "doc", payload);
    ASSERT_TRUE(latest.has_value()) << "nobody online at t=" << at;
  }
  cluster.run_until(900.0);

  // Nearly the whole population (online or not) converged to v3.
  EXPECT_GT(static_cast<double>(cluster.aware_count(*latest)) / 150.0, 0.9);
  // And queries against online replicas return v3.
  const auto result =
      cluster.query("doc", 5, gossip::QueryRule::kLatestVersion);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->payload, "v3");
}

TEST(HybridIntegration, ConcurrentWritersCoexistThenResolve) {
  auto config = cluster_config(100, 21);  // no sessions: isolate conflicts
  config.runtime.gossip.fanout_fraction = 0.10;
  runtime::LoopbackCluster cluster(config);

  // Two peers write the same key at (almost) the same instant.
  cluster.run_until(1.0);
  ASSERT_TRUE(cluster.publish(PeerId(0), "key", "from-a").has_value());
  cluster.run_until(1.01);
  ASSERT_TRUE(cluster.publish(PeerId(1), "key", "from-b").has_value());
  cluster.run_until(60.0);

  // Both versions coexist somewhere; every replica resolves the SAME winner.
  const auto winner =
      cluster.query("key", 10, gossip::QueryRule::kLatestVersion);
  ASSERT_TRUE(winner.has_value());
  std::size_t holding_winner = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    const auto local = cluster.peer(PeerId(i)).read("key");
    if (local.has_value()) {
      EXPECT_EQ(local->id, winner->id)
          << "replica " << i << " resolves a different winner";
      ++holding_winner;
    }
  }
  EXPECT_GT(holding_winner, 90u);
}

TEST(HybridIntegration, DeletionsConvergeAsWell) {
  auto config = cluster_config(80, 13);
  config.sessions.emplace(40.0, 60.0);
  config.runtime.gossip.fanout_fraction = 0.1;
  config.runtime.gossip.pull.no_update_timeout = 15;
  runtime::LoopbackCluster cluster(config);
  cluster.run_until(1.0);
  ASSERT_TRUE(publish_any(cluster, "temp", "data").has_value());
  cluster.run_until(80.0);
  const auto remover = cluster.pick_writer();
  ASSERT_TRUE(remover.has_value());
  ASSERT_TRUE(cluster.peer(*remover).remove("temp"));
  cluster.run_until(500.0);

  std::size_t deleted = 0;
  std::size_t still_live = 0;
  for (std::uint32_t i = 0; i < 80; ++i) {
    const auto& store = cluster.peer(PeerId(i)).node().store();
    if (store.is_deleted("temp")) {
      ++deleted;
    } else if (store.read("temp").has_value()) {
      ++still_live;
    }
  }
  EXPECT_GT(deleted, 70u);
  EXPECT_LT(still_live, 8u);
}

TEST(HybridIntegration, PushAloneMissesOfflinePeersPullFixesIt) {
  // The division of labour the paper's hybrid design rests on.
  sim::RoundSimConfig config;
  config.population = 200;
  config.gossip.estimated_total_replicas = 200;
  config.gossip.fanout_fraction = 0.05;
  config.gossip.pull.no_update_timeout = 10;
  config.max_rounds = 100;
  config.quiescence_rounds = 120;  // run the whole window
  config.seed = 31;
  // 30% online; offline peers return at 3%/round.
  auto churn = std::make_unique<churn::BernoulliChurn>(200, 0.3, 0.99, 0.03);
  sim::RoundSimulator simulator(config, std::move(churn));

  const auto metrics = simulator.propagate_update(std::nullopt, "k", "v");
  const auto value_id = [&simulator] {
    for (std::uint32_t i = 0; i < 200; ++i) {
      if (const auto v = simulator.node(PeerId(i)).read("k")) return v->id;
    }
    return version::VersionId{};
  }();

  // Count whole-population awareness (online + offline).
  std::size_t aware_total = 0;
  for (std::uint32_t i = 0; i < 200; ++i) {
    if (simulator.node(PeerId(i)).knows_version(value_id)) ++aware_total;
  }
  // Push reached the online population fast…
  EXPECT_GT(metrics.final_aware_fraction(), 0.9);
  // …and pull extended it far beyond the initially-online 30%.
  EXPECT_GT(static_cast<double>(aware_total) / 200.0, 0.6);
  EXPECT_GT(metrics.total_pull_messages(), 0u);
}

TEST(HybridIntegration, SelfTuningSurvivesWithoutSchedule) {
  // Self-tuning PF with no a-priori decay still spreads the update and uses
  // fewer messages than blind flooding.
  sim::RoundSimConfig flood_config;
  flood_config.population = 500;
  flood_config.gossip.estimated_total_replicas = 500;
  flood_config.gossip.fanout_fraction = 0.04;
  flood_config.reconnect_pull = false;
  flood_config.round_timers = false;
  flood_config.seed = 17;
  auto tuned_config = flood_config;
  tuned_config.gossip.self_tuning = true;

  auto flood = sim::make_push_phase_simulator(flood_config, 0.4, 0.98);
  auto tuned = sim::make_push_phase_simulator(tuned_config, 0.4, 0.98);
  const auto flood_metrics = flood->propagate_update();
  const auto tuned_metrics = tuned->propagate_update();

  EXPECT_GT(tuned_metrics.final_aware_fraction(), 0.9);
  EXPECT_LT(tuned_metrics.total_push_messages(),
            flood_metrics.total_push_messages());
}

}  // namespace
}  // namespace updp2p

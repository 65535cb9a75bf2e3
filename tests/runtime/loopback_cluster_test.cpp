// LoopbackCluster running the continuous-time experiments: the clock,
// session churn, spread and its latency dependence, the named publisher,
// traffic accounting, same-seed determinism, catch-up by pull, lazy vs eager
// pull traffic, the omniscient read against the message-based §4.4 query,
// and version/tombstone resolution — all through real PeerRuntimes and
// codec bytes.
#include "runtime/loopback_cluster.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "analysis/forward_probability.hpp"

namespace updp2p::runtime {
namespace {

using common::PeerId;

/// 100 peers at 50% availability, no retransmission layer, half-round
/// latency.
LoopbackClusterConfig base_config() {
  LoopbackClusterConfig config;
  config.population = 100;
  config.sessions.emplace(50.0, 50.0);
  config.network.latency = std::make_shared<net::ConstantLatency>(0.5);
  config.runtime.round_duration = 1.0;
  config.runtime.retry.max_attempts = 1;
  config.runtime.gossip.estimated_total_replicas = 100;
  config.runtime.gossip.fanout_fraction = 0.08;
  config.runtime.gossip.forward_probability = analysis::pf_constant(1.0);
  config.runtime.gossip.pull.contacts_per_attempt = 2;
  config.runtime.gossip.pull.no_update_timeout = 15;
  config.runtime.seed = 99;
  return config;
}

std::optional<version::VersionId> publish_any(LoopbackCluster& cluster,
                                              std::string_view key,
                                              std::string payload) {
  const auto writer = cluster.pick_writer();
  if (!writer) return std::nullopt;
  return cluster.publish(*writer, key, std::move(payload));
}

std::uint64_t pull_messages(const LoopbackCluster& cluster) {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < cluster.population(); ++i) {
    const gossip::NodeStats& stats = cluster.peer(PeerId(i)).node().stats();
    total += stats.pull_requests_sent + stats.pull_requests_received;
  }
  return total;
}

TEST(LoopbackCluster, TimeAdvancesMonotonically) {
  LoopbackCluster cluster(base_config());
  EXPECT_DOUBLE_EQ(cluster.now(), 0.0);
  cluster.run_until(10.0);
  EXPECT_DOUBLE_EQ(cluster.now(), 10.0);
  cluster.run_until(25.0, /*dt=*/0.3);
  EXPECT_DOUBLE_EQ(cluster.now(), 25.0);
  cluster.run_until(5.0);  // a target in the past does not rewind
  EXPECT_DOUBLE_EQ(cluster.now(), 25.0);
}

TEST(LoopbackCluster, SessionsHoldTheProcessAvailability) {
  auto config = base_config();
  config.population = 400;
  LoopbackCluster cluster(config);
  cluster.run_until(200.0, /*dt=*/1.0);
  EXPECT_DOUBLE_EQ(cluster.now(), 200.0);
  const double fraction = static_cast<double>(cluster.online_count()) /
                          static_cast<double>(cluster.population());
  EXPECT_NEAR(fraction, 0.5, 0.1);
  // 400 peers with 50-unit mean sessions flip on roughly 400 times here.
  EXPECT_GT(cluster.reconnects(), 200u);
}

TEST(LoopbackCluster, OfflinePeersCatchUpViaPullUnderSessions) {
  auto config = base_config();
  config.sessions.emplace(20.0, 60.0);  // 25% availability: heavy churn
  LoopbackCluster cluster(config);
  cluster.run_until(1.0);
  const auto id = publish_any(cluster, "key", "value");
  ASSERT_TRUE(id.has_value());
  cluster.run_until(900.0);
  // Across the WHOLE population, not just online peers.
  EXPECT_GT(static_cast<double>(cluster.aware_count(*id)) / 100.0, 0.9);
  EXPECT_GT(pull_messages(cluster), 0u);
  EXPECT_GT(cluster.reconnects(), 0u);
}

TEST(LoopbackCluster, LazyPullSendsLessPullTraffic) {
  auto eager_config = base_config();
  eager_config.runtime.gossip.pull.lazy = false;
  auto lazy_config = base_config();
  lazy_config.runtime.gossip.pull.lazy = true;
  // Disable the staleness timer so only reconnect behaviour differs.
  eager_config.runtime.gossip.pull.no_update_timeout = 1'000'000;
  lazy_config.runtime.gossip.pull.no_update_timeout = 1'000'000;

  LoopbackCluster eager(eager_config);
  LoopbackCluster lazy(lazy_config);
  for (LoopbackCluster* cluster : {&eager, &lazy}) {
    cluster->run_until(1.0);
    ASSERT_TRUE(publish_any(*cluster, "key", "v").has_value());
    cluster->run_until(300.0);
  }
  EXPECT_LT(pull_messages(lazy), pull_messages(eager));
}

TEST(LoopbackCluster, UpdateSpreadsAmongOnlinePeers) {
  LoopbackCluster cluster(base_config());
  cluster.run_until(1.0);
  const auto id = publish_any(cluster, "key", "value");
  ASSERT_TRUE(id.has_value());
  cluster.run_until(60.0);
  EXPECT_GT(static_cast<double>(cluster.aware_online_count(*id)) /
                static_cast<double>(cluster.online_count()),
            0.85);
  EXPECT_GT(cluster.totals().datagrams_out, 0u);
}

TEST(LoopbackCluster, HigherLatencySlowsDissemination) {
  auto fast_config = base_config();
  fast_config.network.latency = std::make_shared<net::ConstantLatency>(0.1);
  auto slow_config = base_config();
  slow_config.network.latency = std::make_shared<net::ConstantLatency>(3.0);

  auto measure = [](LoopbackClusterConfig config) {
    LoopbackCluster cluster(std::move(config));
    cluster.run_until(1.0);
    const auto id = publish_any(cluster, "key", "v");
    if (!id) return 0.0;
    cluster.run_until(8.0);  // early snapshot
    return static_cast<double>(cluster.aware_online_count(*id)) /
           static_cast<double>(cluster.online_count());
  };
  EXPECT_GT(measure(fast_config), measure(slow_config));
}

TEST(LoopbackCluster, ExplicitPublisherUsedWhenOnline) {
  LoopbackCluster cluster(base_config());
  std::optional<PeerId> online_peer;
  for (std::uint32_t i = 0; i < cluster.population(); ++i) {
    if (cluster.peer(PeerId(i)).online()) {
      online_peer = PeerId(i);
      break;
    }
  }
  ASSERT_TRUE(online_peer.has_value());
  const auto id = cluster.publish(*online_peer, "key", "v");
  ASSERT_TRUE(id.has_value());
  // Before any step only the named publisher holds the version.
  EXPECT_TRUE(cluster.peer(*online_peer).node().knows_version(*id));
  EXPECT_EQ(cluster.aware_count(*id), 1u);
}

TEST(LoopbackCluster, StatsAreConsistent) {
  LoopbackCluster cluster(base_config());
  cluster.run_until(1.0);
  ASSERT_TRUE(publish_any(cluster, "key", "v").has_value());
  cluster.run_until(100.0);
  const RuntimeStats totals = cluster.totals();
  const net::InprocNetworkStats& net = cluster.network().stats();
  // Without retransmission every datagram a runtime sends is one the
  // network takes; some may still be in flight when the clock stops.
  EXPECT_EQ(totals.datagrams_out, net.datagrams_submitted);
  EXPECT_EQ(totals.retransmits, 0u);
  const std::uint64_t settled = net.datagrams_delivered + net.dropped_loss +
                                net.dropped_offline + net.dropped_detached +
                                net.dropped_policy;
  EXPECT_GE(net.datagrams_submitted, settled);
  EXPECT_GE(net.datagrams_delivered, totals.datagrams_in);
  EXPECT_GT(net.datagrams_delivered, 0u);
  EXPECT_GT(net.dropped_offline, 0u);  // sessions take receivers away
}

TEST(LoopbackCluster, DeterministicForSameSeed) {
  auto run_once = []() {
    LoopbackCluster cluster(base_config());
    cluster.run_until(1.0);
    const auto id = publish_any(cluster, "key", "v");
    cluster.run_until(80.0);
    const RuntimeStats totals = cluster.totals();
    return std::make_tuple(id.has_value(), totals.datagrams_out,
                           totals.datagrams_in, cluster.reconnects(),
                           cluster.online_count());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(LoopbackCluster, QueryFindsPublishedValue) {
  LoopbackCluster cluster(base_config());
  cluster.run_until(1.0);
  ASSERT_TRUE(publish_any(cluster, "key", "value").has_value());
  cluster.run_until(60.0);
  const auto result =
      cluster.query("key", 5, gossip::QueryRule::kLatestVersion);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->payload, "value");
}

TEST(LoopbackCluster, QueryUnknownKeyIsEmpty) {
  LoopbackCluster cluster(base_config());
  cluster.run_until(5.0);
  EXPECT_FALSE(
      cluster.query("nothing", 5, gossip::QueryRule::kMajority).has_value());
}

TEST(LoopbackCluster, MessageBasedQueryMatchesOmniscientQuery) {
  auto config = base_config();
  config.sessions.reset();  // a stable issuer: everyone stays online
  LoopbackCluster cluster(config);
  cluster.run_until(1.0);
  ASSERT_TRUE(publish_any(cluster, "key", "value").has_value());
  cluster.run_until(60.0);

  const auto omniscient =
      cluster.query("key", 5, gossip::QueryRule::kLatestVersion);
  ASSERT_TRUE(omniscient.has_value());

  PeerRuntime& issuer = cluster.peer(PeerId(42));
  const auto nonce =
      issuer.begin_query("key", gossip::QueryRule::kLatestVersion, 4);
  ASSERT_NE(nonce, 0u);
  cluster.run_until(cluster.now() + 10.0);  // requests + replies travel
  const auto outcome = issuer.poll_query(nonce);
  EXPECT_TRUE(outcome.complete);
  ASSERT_TRUE(outcome.value.has_value());
  EXPECT_EQ(outcome.value->id, omniscient->id);
}

TEST(LoopbackCluster, OfflineIssuerCannotQuery) {
  LoopbackCluster cluster(base_config());
  std::optional<PeerId> offline_peer;
  for (std::uint32_t i = 0; i < cluster.population(); ++i) {
    if (!cluster.peer(PeerId(i)).online()) {
      offline_peer = PeerId(i);
      break;
    }
  }
  ASSERT_TRUE(offline_peer.has_value());
  EXPECT_EQ(cluster.peer(*offline_peer)
                .begin_query("key", gossip::QueryRule::kHybrid, 3),
            0u);
}

TEST(LoopbackCluster, NewerVersionWinsQueries) {
  LoopbackCluster cluster(base_config());
  cluster.run_until(1.0);
  ASSERT_TRUE(publish_any(cluster, "key", "v1").has_value());
  cluster.run_until(50.0);
  ASSERT_TRUE(publish_any(cluster, "key", "v2").has_value());
  cluster.run_until(120.0);
  const auto result =
      cluster.query("key", 7, gossip::QueryRule::kLatestVersion);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->payload, "v2");
}

TEST(LoopbackCluster, TombstonesConverge) {
  LoopbackCluster cluster(base_config());
  cluster.run_until(1.0);
  ASSERT_TRUE(publish_any(cluster, "key", "value").has_value());
  cluster.run_until(40.0);
  const auto remover = cluster.pick_writer();
  ASSERT_TRUE(remover.has_value());
  ASSERT_TRUE(cluster.peer(*remover).remove("key"));
  cluster.run_until(150.0);
  EXPECT_FALSE(cluster.query("key", 7, gossip::QueryRule::kLatestVersion)
                   .has_value());
  std::size_t deleted = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    if (cluster.peer(PeerId(i)).node().store().is_deleted("key")) ++deleted;
  }
  EXPECT_GT(deleted, 80u);
}

}  // namespace
}  // namespace updp2p::runtime

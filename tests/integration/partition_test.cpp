// Failure injection: network partitions on the real runtime.
//
// Paper §3: "if two peers may not communicate with each other, they will
// simply perceive each other to be offline" — a partition is just mass
// pairwise unavailability. These tests cut a LoopbackCluster's switch with a
// LinkFaultPolicy during an update and verify the hybrid protocol's
// behaviour: the push covers the initiator's side; after the cut heals, the
// pull phase reconciles the other side.
#include <gtest/gtest.h>

#include "analysis/forward_probability.hpp"
#include "runtime/loopback_cluster.hpp"

namespace updp2p {
namespace {

using common::PeerId;

constexpr std::size_t kPopulation = 300;
constexpr std::uint32_t kCut = 150;  // peers < kCut are side A

bool same_side(PeerId a, PeerId b) {
  return (a.value() < kCut) == (b.value() < kCut);
}

/// Drops every datagram that crosses the cut.
class CutPolicy final : public net::LinkFaultPolicy {
 public:
  Decision on_submit(PeerId from, PeerId to, std::span<const std::byte>,
                     common::StreamRng&) override {
    return Decision{.drop = !same_side(from, to)};
  }
};

/// Everyone online, no retransmission layer, half-round latency.
runtime::LoopbackClusterConfig partition_config() {
  runtime::LoopbackClusterConfig config;
  config.population = kPopulation;
  config.network.latency = std::make_shared<net::ConstantLatency>(0.5);
  config.runtime.round_duration = 1.0;
  config.runtime.retry.max_attempts = 1;
  config.runtime.gossip.estimated_total_replicas = kPopulation;
  config.runtime.gossip.fanout_fraction = 0.05;
  config.runtime.gossip.forward_probability = analysis::pf_constant(1.0);
  config.runtime.gossip.pull.contacts_per_attempt = 4;
  config.runtime.gossip.pull.no_update_timeout = 8;
  config.runtime.seed = 404;
  return config;
}

/// Steps the cluster through `rounds` more rounds.
void run_rounds(runtime::LoopbackCluster& cluster, int rounds) {
  cluster.run_until(cluster.now() + rounds);
}

std::size_t aware_on_side(const runtime::LoopbackCluster& cluster,
                          const version::VersionId& id, bool side_a) {
  std::size_t count = 0;
  for (std::uint32_t i = 0; i < kPopulation; ++i) {
    if ((i < kCut) != side_a) continue;
    if (cluster.peer(PeerId(i)).node().knows_version(id)) ++count;
  }
  return count;
}

/// Peers whose store holds two versions of `key`.
std::size_t holding_both(const runtime::LoopbackCluster& cluster,
                         std::string_view key) {
  std::size_t count = 0;
  for (std::uint32_t i = 0; i < kPopulation; ++i) {
    if (cluster.peer(PeerId(i)).node().store().versions(key).size() == 2) {
      ++count;
    }
  }
  return count;
}

TEST(Partition, PushStopsAtTheCut) {
  CutPolicy cut;
  runtime::LoopbackCluster cluster(partition_config());
  cluster.network().set_link_policy(&cut);
  const auto id = cluster.publish(PeerId(0), "k", "v");
  ASSERT_TRUE(id.has_value());
  run_rounds(cluster, 40);
  // Side A (initiator's side) is covered; side B is untouched.
  EXPECT_GT(aware_on_side(cluster, *id, true), 140u);
  EXPECT_EQ(aware_on_side(cluster, *id, false), 0u);
}

TEST(Partition, HealingLetsPullReconcile) {
  CutPolicy cut;
  runtime::LoopbackCluster cluster(partition_config());
  cluster.network().set_link_policy(&cut);
  const auto id = cluster.publish(PeerId(0), "k", "v");
  ASSERT_TRUE(id.has_value());
  run_rounds(cluster, 40);
  ASSERT_EQ(aware_on_side(cluster, *id, false), 0u);

  // Heal the cut; timer-driven pulls ("no update received within time T")
  // drag side B back into sync.
  cluster.network().set_link_policy(nullptr);
  run_rounds(cluster, 60);
  EXPECT_GT(aware_on_side(cluster, *id, false), 140u);
}

TEST(Partition, ConcurrentWritesOnBothSidesConvergeAfterHeal) {
  CutPolicy cut;
  runtime::LoopbackCluster cluster(partition_config());
  cluster.network().set_link_policy(&cut);
  ASSERT_TRUE(cluster.publish(PeerId(0), "k", "from-side-a").has_value());
  ASSERT_TRUE(cluster.publish(PeerId(200), "k", "from-side-b").has_value());
  run_rounds(cluster, 40);
  // While cut, neither version crosses to the other side.
  ASSERT_EQ(holding_both(cluster, "k"), 0u);

  cluster.network().set_link_policy(nullptr);
  run_rounds(cluster, 80);

  // Every replica that has the key resolves the same winner — the
  // deterministic §4.4 rule applied to the reconciled concurrent pair.
  version::VersionId winner{};
  std::size_t holding = 0;
  for (std::uint32_t i = 0; i < kPopulation; ++i) {
    const auto value = cluster.peer(PeerId(i)).node().read("k");
    if (!value.has_value()) continue;
    if (holding == 0) winner = value->id;
    EXPECT_EQ(value->id, winner) << "peer " << i;
    ++holding;
  }
  EXPECT_GT(holding, 280u);
  // Both concurrent versions survive in the maximal sets of synced peers.
  EXPECT_GT(holding_both(cluster, "k"), 250u);
}

TEST(Partition, CutDropsCountAsPolicyDrops) {
  CutPolicy cut;
  runtime::LoopbackCluster cluster(partition_config());
  cluster.network().set_link_policy(&cut);
  ASSERT_TRUE(cluster.publish(PeerId(0), "k", "v").has_value());
  run_rounds(cluster, 40);
  // Datagrams across the cut are lost like sends to offline peers (§3), but
  // the switch attributes them to the policy.
  EXPECT_GT(cluster.network().stats().dropped_policy, 0u);
  EXPECT_EQ(cluster.network().stats().dropped_offline, 0u);
}

}  // namespace
}  // namespace updp2p

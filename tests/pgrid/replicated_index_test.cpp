#include "pgrid/replicated_index.hpp"

#include <gtest/gtest.h>

#include "analysis/forward_probability.hpp"
#include "churn/heterogeneous.hpp"

namespace updp2p::pgrid {
namespace {

using common::PeerId;

ReplicatedIndexConfig small_config() {
  ReplicatedIndexConfig config;
  config.grid.peers = 128;
  config.grid.depth = 2;  // 4 partitions of 32
  config.grid.refs_per_level = 4;
  config.grid.seed = 2;
  config.gossip.fanout_fraction = 0.2;  // ~6 peers within a 32-group
  config.gossip.forward_probability = analysis::pf_constant(1.0);
  config.gossip.pull.no_update_timeout = 6;
  config.seed = 77;
  return config;
}

TEST(ReplicatedIndex, PutRoutesAndGossips) {
  ReplicatedIndex index(small_config());
  const auto outcome = index.put(PeerId(0), "users/alice", "profile-v1");
  ASSERT_TRUE(outcome.ok);
  index.step_rounds(10);
  const auto value = index.get(PeerId(5), "users/alice");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->payload, "profile-v1");
}

TEST(ReplicatedIndex, GroupReachesHighConsistency) {
  ReplicatedIndex index(small_config());
  (void)index.put(PeerId(0), "doc", "v1");
  index.step_rounds(15);
  const auto value = index.get(PeerId(1), "doc");
  ASSERT_TRUE(value.has_value());
  EXPECT_GT(index.group_consistency("doc", value->id), 0.9);
}

TEST(ReplicatedIndex, GetUnknownKeyIsEmpty) {
  ReplicatedIndex index(small_config());
  EXPECT_FALSE(index.get(PeerId(0), "missing").has_value());
}

TEST(ReplicatedIndex, UpdateSupersedesOldValue) {
  ReplicatedIndex index(small_config());
  (void)index.put(PeerId(0), "doc", "v1");
  index.step_rounds(12);
  (void)index.put(PeerId(9), "doc", "v2");
  index.step_rounds(12);
  const auto value = index.get(PeerId(3), "doc");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->payload, "v2");
}

TEST(ReplicatedIndex, RemoveTombstonesAcrossGroup) {
  ReplicatedIndex index(small_config());
  (void)index.put(PeerId(0), "doc", "v1");
  index.step_rounds(12);
  const auto outcome = index.remove(PeerId(4), "doc");
  ASSERT_TRUE(outcome.ok);
  index.step_rounds(12);
  EXPECT_FALSE(index.get(PeerId(7), "doc").has_value());
}

TEST(ReplicatedIndex, OfflineOriginCannotAct) {
  ReplicatedIndex index(small_config());
  index.set_online(PeerId(0), false);
  EXPECT_FALSE(index.put(PeerId(0), "doc", "v1").ok);
  EXPECT_FALSE(index.get(PeerId(0), "doc").has_value());
}

TEST(ReplicatedIndex, OfflineReplicasCatchUpOnReturn) {
  ReplicatedIndex index(small_config());
  // Take a third of every group offline.
  for (std::uint32_t i = 0; i < 128; i += 3) {
    index.set_online(PeerId(i), false);
  }
  const auto put_outcome = index.put(PeerId(1), "doc", "v1");
  ASSERT_TRUE(put_outcome.ok);
  index.step_rounds(10);

  // They return; pull-on-reconnect + staleness pulls reconcile them.
  for (std::uint32_t i = 0; i < 128; i += 3) {
    index.set_online(PeerId(i), true);
  }
  index.step_rounds(25);
  const auto value = index.get(PeerId(1), "doc");
  ASSERT_TRUE(value.has_value());
  EXPECT_GT(index.group_consistency("doc", value->id), 0.9);
}

TEST(ReplicatedIndex, KeysLandInTheirOwnPartitions) {
  ReplicatedIndex index(small_config());
  (void)index.put(PeerId(0), "key-A", "a");
  (void)index.put(PeerId(0), "key-B", "b");
  index.step_rounds(15);
  // A key's versions live only inside its replica group.
  const auto path_a = BitPath::from_key("key-A", 64);
  const auto& group_a = index.grid().replica_group(path_a);
  std::size_t outside_holders = 0;
  for (std::uint32_t i = 0; i < 128; ++i) {
    const bool in_group =
        std::find(group_a.begin(), group_a.end(), PeerId(i)) != group_a.end();
    if (!in_group && index.node(PeerId(i)).read("key-A").has_value()) {
      ++outside_holders;
    }
  }
  EXPECT_EQ(outside_holders, 0u);
}

TEST(ReplicatedIndex, QueryRulesAllWork) {
  ReplicatedIndex index(small_config());
  (void)index.put(PeerId(0), "doc", "v1");
  index.step_rounds(15);
  for (const auto rule :
       {gossip::QueryRule::kLatestVersion, gossip::QueryRule::kMajority,
        gossip::QueryRule::kHybrid}) {
    const auto value = index.get(PeerId(2), "doc", rule, 5);
    ASSERT_TRUE(value.has_value()) << gossip::to_string(rule);
    EXPECT_EQ(value->payload, "v1");
  }
}

TEST(ReplicatedIndex, RoutingUnderHeavyChurnMayFailGracefully) {
  ReplicatedIndex index(small_config());
  // Nearly everyone offline: routing often fails, but never crashes and
  // never fabricates a result.
  for (std::uint32_t i = 1; i < 128; ++i) {
    if (i % 10 != 0) index.set_online(PeerId(i), false);
  }
  unsigned successes = 0;
  for (int k = 0; k < 20; ++k) {
    if (index.put(PeerId(0), "k" + std::to_string(k), "v").ok) ++successes;
  }
  EXPECT_LT(successes, 20u);
}

TEST(ReplicatedIndex, DriveWithChurnModelStaysConsistent) {
  ReplicatedIndex index(small_config());
  const auto outcome = index.put(PeerId(0), "doc", "v1");
  ASSERT_TRUE(outcome.ok);
  index.step_rounds(8);  // push completes while everyone is online

  // Now churn the whole system for a while and verify the group heals.
  const auto churn = churn::make_session_churn(128, 15.0, 10.0);  // 60%
  common::StreamRng rng(3);
  churn->reset(rng);
  index.drive(*churn, rng, 60);

  // Bring everyone back; pulls finish the reconciliation.
  for (std::uint32_t i = 0; i < 128; ++i) {
    index.set_online(PeerId(i), true);
  }
  index.step_rounds(20);
  const auto value = index.get(PeerId(2), "doc");
  ASSERT_TRUE(value.has_value());
  EXPECT_GT(index.group_consistency("doc", value->id), 0.9);
}

TEST(ReplicatedIndex, DriveRejectsMismatchedPopulation) {
  ReplicatedIndex index(small_config());
  churn::BernoulliChurn churn(64, 0.5, 1.0, 0.0);  // wrong population
  common::StreamRng rng(1);
  EXPECT_DEATH(index.drive(churn, rng, 1), "population");
}

TEST(ReplicatedIndex, BusAccountsTraffic) {
  ReplicatedIndex index(small_config());
  (void)index.put(PeerId(0), "doc", "v1");
  index.step_rounds(10);
  EXPECT_GT(index.bus_stats().messages_sent, 0u);
  EXPECT_GT(index.bus_stats().bytes_sent, 0u);
}

}  // namespace
}  // namespace updp2p::pgrid

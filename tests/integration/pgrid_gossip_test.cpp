// Integration of the P-Grid substrate with the gossip update protocol: the
// paper's deployment story — replica groups of a P-Grid partition keep
// their partition quasi-consistent via hybrid push/pull (§2, §3).
#include <gtest/gtest.h>

#include "analysis/forward_probability.hpp"
#include "pgrid/pgrid.hpp"
#include "sim/round_simulator.hpp"

namespace updp2p {
namespace {

using common::PeerId;

TEST(PGridGossip, ReplicaGroupPropagatesAnUpdate) {
  pgrid::PGridConfig grid_config;
  grid_config.peers = 256;
  grid_config.depth = 2;  // 4 partitions of 64
  grid_config.refs_per_level = 4;
  grid_config.seed = 3;
  const auto grid = pgrid::PGridNetwork::build(grid_config);

  const auto key = pgrid::BitPath::from_key("catalogue/item-1", 64);
  const auto& group = grid.replica_group(key);
  ASSERT_EQ(group.size(), 64u);

  // Simulate the update protocol inside the replica group.
  sim::RoundSimConfig config;
  config.population = group.size();
  config.gossip.estimated_total_replicas = group.size();
  config.gossip.fanout_fraction = 6.0 / 64.0;
  config.gossip.forward_probability = analysis::pf_geometric(0.9);
  config.gossip.pull.no_update_timeout = 8;
  config.max_rounds = 60;
  config.quiescence_rounds = 80;
  config.seed = 9;
  auto churn = std::make_unique<churn::BernoulliChurn>(64, 0.4, 0.99, 0.05);
  sim::RoundSimulator simulator(config, std::move(churn));

  const auto metrics =
      simulator.propagate_update(std::nullopt, "catalogue/item-1", "v2");
  EXPECT_GT(metrics.final_aware_fraction(), 0.9);

  // Eventually (almost) the whole group holds v2 thanks to pull.
  std::size_t holding = 0;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto value = simulator.node(PeerId(i)).read("catalogue/item-1");
    if (value.has_value() && value->payload == "v2") ++holding;
  }
  EXPECT_GT(holding, 48u);
}

TEST(PGridGossip, SearchThenReadReturnsFreshValue) {
  pgrid::PGridConfig grid_config;
  grid_config.peers = 128;
  grid_config.depth = 2;
  grid_config.refs_per_level = 4;
  grid_config.seed = 4;
  const auto grid = pgrid::PGridNetwork::build(grid_config);
  const auto key = pgrid::BitPath::from_key("doc", 64);
  const auto& group = grid.replica_group(key);

  // Fully-online replica group: one publish, then search + read.
  sim::RoundSimConfig config;
  config.population = group.size();
  config.gossip.estimated_total_replicas = group.size();
  config.gossip.fanout_fraction = 5.0 / static_cast<double>(group.size());
  // Seed chosen so the blind push reaches the WHOLE group (most seeds do,
  // but coverage is not guaranteed — a miss would make the read below
  // depend on which replica the search happens to find).
  config.seed = 11;
  auto simulator = sim::make_push_phase_simulator(config, 1.0, 1.0);
  const auto metrics = simulator->propagate_update(std::nullopt, "doc", "fresh");
  ASSERT_DOUBLE_EQ(metrics.final_aware_fraction(), 1.0);

  // Route a search to the responsible partition, then read from the found
  // replica's simulated store (group index == simulator peer index).
  common::StreamRng rng(6);
  const auto result = grid.search(PeerId(0), key,
                                  [](PeerId) { return true; }, rng);
  ASSERT_TRUE(result.found);
  // Map the found grid peer to its replica-group slot.
  std::size_t slot = group.size();
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (group[i] == result.responsible) slot = i;
  }
  ASSERT_LT(slot, group.size());
  const auto value =
      simulator->node(PeerId(static_cast<std::uint32_t>(slot))).read("doc");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->payload, "fresh");
}

TEST(PGridGossip, EveryPartitionCanHostItsOwnGroup) {
  pgrid::PGridConfig grid_config;
  grid_config.peers = 64;
  grid_config.depth = 3;
  grid_config.refs_per_level = 2;
  grid_config.seed = 8;
  const auto grid = pgrid::PGridNetwork::build(grid_config);
  for (std::uint64_t p = 0; p < 8; ++p) {
    const pgrid::BitPath partition(p << 61, 3);
    const auto& group = grid.replica_group(partition);
    ASSERT_EQ(group.size(), 8u) << "partition " << partition.to_string();
    sim::RoundSimConfig config;
    config.population = group.size();
    config.gossip.estimated_total_replicas = group.size();
    config.gossip.fanout_fraction = 0.5;
    config.seed = 100 + p;
    auto simulator = sim::make_push_phase_simulator(config, 1.0, 1.0);
    const auto metrics = simulator->propagate_update();
    EXPECT_DOUBLE_EQ(metrics.final_aware_fraction(), 1.0)
        << "partition " << partition.to_string();
  }
}

}  // namespace
}  // namespace updp2p

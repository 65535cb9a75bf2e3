// Tests for the self-organizing P-Grid construction (pairwise exchanges).
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "pgrid/pgrid.hpp"

namespace updp2p::pgrid {
namespace {

using common::PeerId;
using common::StreamRng;

PGridConfig config_64() {
  PGridConfig config;
  config.peers = 64;
  config.depth = 3;
  config.refs_per_level = 4;
  config.seed = 31;
  return config;
}

TEST(PGridExchange, EveryPeerReachesFullDepth) {
  const auto network = PGridNetwork::build_by_exchanges(config_64());
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto& peer = network.peer(PeerId(i));
    EXPECT_EQ(peer.path.length(), 3u) << "peer " << i;
    EXPECT_EQ(peer.routing.size(), 3u);
  }
}

TEST(PGridExchange, RoutingInvariantsHold) {
  const auto network = PGridNetwork::build_by_exchanges(config_64());
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto& peer = network.peer(PeerId(i));
    for (std::uint8_t l = 0; l < 3; ++l) {
      const auto& level = peer.routing[l];
      EXPECT_EQ(level.sibling_prefix, peer.path.sibling_at(l));
      for (const PeerId ref : level.refs) {
        EXPECT_NE(ref, peer.id);
        EXPECT_TRUE(
            level.sibling_prefix.is_prefix_of(network.peer(ref).path))
            << "peer " << i << " level " << static_cast<int>(l)
            << " ref " << ref.value();
      }
      EXPECT_LE(level.refs.size(), 4u);
    }
  }
}

TEST(PGridExchange, PartitionsReasonablyBalanced) {
  const auto network = PGridNetwork::build_by_exchanges(config_64());
  std::size_t occupied = 0;
  std::size_t total = 0;
  std::size_t largest = 0;
  std::size_t smallest = 64;
  for (std::uint64_t p = 0; p < 8; ++p) {
    const BitPath partition(p << 61, 3);
    const auto& group = network.replica_group(partition);
    if (!group.empty()) ++occupied;
    total += group.size();
    largest = std::max(largest, group.size());
    smallest = std::min(smallest, group.size());
  }
  // Randomized splitting is not perfectly even, but every partition should
  // exist and none should hog the population.
  EXPECT_EQ(occupied, 8u);
  EXPECT_EQ(total, 64u);
  EXPECT_LE(largest, 32u);
  EXPECT_GE(smallest, 1u);
}

TEST(PGridExchange, ReplicaListsShareThePath) {
  const auto network = PGridNetwork::build_by_exchanges(config_64());
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto& peer = network.peer(PeerId(i));
    for (const PeerId other : peer.replicas) {
      EXPECT_EQ(network.peer(other).path, peer.path);
      EXPECT_NE(other, peer.id);
    }
  }
}

TEST(PGridExchange, SearchWorksOnOrganicNetwork) {
  const auto network = PGridNetwork::build_by_exchanges(config_64());
  StreamRng rng(5);
  const auto all_online = [](PeerId) { return true; };
  std::size_t found = 0;
  constexpr int kQueries = 200;
  for (int q = 0; q < kQueries; ++q) {
    const auto key = BitPath::from_key("item-" + std::to_string(q), 64);
    if (network.replica_group(key).empty()) continue;  // unoccupied
    const PeerId origin(static_cast<std::uint32_t>(rng.uniform_below(64)));
    const auto result =
        network.search_with_retries(origin, key, all_online, rng, 5);
    if (result.found) {
      ++found;
      EXPECT_TRUE(network.peer(result.responsible).path.is_prefix_of(key));
    }
  }
  EXPECT_GT(found, kQueries * 9 / 10);
}

TEST(PGridExchange, DeterministicPerSeed) {
  const auto a = PGridNetwork::build_by_exchanges(config_64());
  const auto b = PGridNetwork::build_by_exchanges(config_64());
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a.peer(PeerId(i)).path, b.peer(PeerId(i)).path);
  }
}

TEST(PGridExchange, FewMeetingsLeaveShortPathsButValidStructure) {
  // With very few meetings, stragglers are extended randomly — structure
  // invariants must still hold.
  auto config = config_64();
  const auto network = PGridNetwork::build_by_exchanges(config, 50);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto& peer = network.peer(PeerId(i));
    EXPECT_EQ(peer.path.length(), 3u);
    EXPECT_EQ(peer.routing.size(), 3u);
  }
}

TEST(PGridExchange, ScalesToLargerNetworks) {
  PGridConfig config;
  config.peers = 512;
  config.depth = 4;
  config.refs_per_level = 4;
  config.seed = 77;
  const auto network = PGridNetwork::build_by_exchanges(config);
  std::size_t occupied = 0;
  for (std::uint64_t p = 0; p < 16; ++p) {
    if (!network.replica_group(BitPath(p << 60, 4)).empty()) ++occupied;
  }
  EXPECT_EQ(occupied, 16u);
}

}  // namespace
}  // namespace updp2p::pgrid

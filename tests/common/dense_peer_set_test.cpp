#include "common/dense_peer_set.hpp"

#include <cstdint>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace updp2p::common {
namespace {

TEST(DensePeerSet, StartsEmpty) {
  DensePeerSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(PeerId(0)));
  EXPECT_FALSE(set.contains(PeerId(12'345)));
}

TEST(DensePeerSet, InsertReportsNovelty) {
  DensePeerSet set;
  EXPECT_TRUE(set.insert(PeerId(7)));
  EXPECT_FALSE(set.insert(PeerId(7)));
  EXPECT_TRUE(set.insert(PeerId(3)));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(PeerId(7)));
  EXPECT_TRUE(set.contains(PeerId(3)));
  EXPECT_FALSE(set.contains(PeerId(5)));
}

TEST(DensePeerSet, ClearIsReusableWithoutShrinking) {
  DensePeerSet set;
  set.insert(PeerId(100));
  const std::size_t capacity = set.capacity();
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(PeerId(100)));
  EXPECT_EQ(set.capacity(), capacity);  // O(1) clear keeps the stamp array
  EXPECT_TRUE(set.insert(PeerId(100)));
}

TEST(DensePeerSet, ReserveIdsAvoidsLaterGrowth) {
  DensePeerSet set;
  set.reserve_ids(1'000);
  const std::size_t capacity = set.capacity();
  ASSERT_GE(capacity, 1'000u);
  for (std::uint32_t id = 0; id < 1'000; ++id) set.insert(PeerId(id));
  EXPECT_EQ(set.capacity(), capacity);
  EXPECT_EQ(set.size(), 1'000u);
}

TEST(DensePeerSet, RejectsInvalidId) {
  DensePeerSet set;
  EXPECT_DEATH((void)set.insert(PeerId::invalid()), "valid");
}

// Epoch stamps wrap after 2^32 - 1 clears; exercising the wrap handling
// directly would take hours, so instead hammer many clear cycles and check
// no stale stamp ever leaks through an epoch boundary.
TEST(DensePeerSet, ManyClearCyclesNeverLeakStaleEntries) {
  DensePeerSet set;
  for (std::uint32_t cycle = 0; cycle < 10'000; ++cycle) {
    const PeerId peer(cycle % 97);
    EXPECT_TRUE(set.insert(peer));
    EXPECT_EQ(set.size(), 1u);
    set.clear();
    EXPECT_FALSE(set.contains(peer));
  }
}

// Property test: under a randomized stream of inserts, membership queries
// and epoch resets, DensePeerSet agrees with std::unordered_set exactly.
TEST(DensePeerSet, AgreesWithUnorderedSetUnderRandomOperations) {
  StreamRng rng(0xD15EA5E);
  DensePeerSet dense;
  std::unordered_set<std::uint32_t> reference;

  constexpr std::uint32_t kIdSpace = 600;  // dense ids with frequent reuse
  for (int step = 0; step < 50'000; ++step) {
    const std::uint32_t op = rng.uniform_below(100);
    const PeerId peer(rng.uniform_below(kIdSpace));
    if (op < 60) {
      const bool novel = dense.insert(peer);
      EXPECT_EQ(novel, reference.insert(peer.value()).second)
          << "insert disagreement at step " << step << " for id "
          << peer.value();
    } else if (op < 95) {
      EXPECT_EQ(dense.contains(peer),
                reference.contains(peer.value()))
          << "contains disagreement at step " << step << " for id "
          << peer.value();
    } else {
      dense.clear();  // O(1) epoch reset vs the reference's real clear
      reference.clear();
    }
    ASSERT_EQ(dense.size(), reference.size()) << "size drift at " << step;
    ASSERT_EQ(dense.empty(), reference.empty());
  }

  // Full sweep at the end: every id in the space agrees.
  for (std::uint32_t id = 0; id < kIdSpace; ++id) {
    EXPECT_EQ(dense.contains(PeerId(id)), reference.contains(id));
  }
}

}  // namespace
}  // namespace updp2p::common

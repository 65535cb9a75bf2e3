#include "common/small_peer_set.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.hpp"

namespace updp2p::common {
namespace {

TEST(SmallPeerSet, StartsEmpty) {
  SmallPeerSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(PeerId(0)));
  EXPECT_FALSE(set.contains(PeerId(12345)));
}

TEST(SmallPeerSet, InsertReportsNovelty) {
  SmallPeerSet set;
  EXPECT_TRUE(set.insert(PeerId(7)));
  EXPECT_FALSE(set.insert(PeerId(7)));
  EXPECT_TRUE(set.insert(PeerId(8)));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(PeerId(7)));
  EXPECT_TRUE(set.contains(PeerId(8)));
  EXPECT_FALSE(set.contains(PeerId(9)));
}

TEST(SmallPeerSet, GrowsPastInitialCapacity) {
  SmallPeerSet set;
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    EXPECT_TRUE(set.insert(PeerId(i)));
  }
  EXPECT_EQ(set.size(), 10'000u);
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    EXPECT_TRUE(set.contains(PeerId(i)));
  }
  EXPECT_FALSE(set.contains(PeerId(10'000)));
  // Load factor stays <= 0.75 through growth.
  EXPECT_GE(set.capacity() * 3, set.size() * 4);
}

TEST(SmallPeerSet, ClearRetainsCapacity) {
  SmallPeerSet set;
  for (std::uint32_t i = 0; i < 100; ++i) set.insert(PeerId(i));
  const std::size_t capacity = set.capacity();
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.capacity(), capacity);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(set.contains(PeerId(i)));
  }
  EXPECT_TRUE(set.insert(PeerId(5)));
}

TEST(SmallPeerSet, ReserveAvoidsRehash) {
  SmallPeerSet set;
  set.reserve(1'000);
  const std::size_t capacity = set.capacity();
  for (std::uint32_t i = 0; i < 1'000; ++i) set.insert(PeerId(i));
  EXPECT_EQ(set.capacity(), capacity);
}

TEST(SmallPeerSet, SparseIdsMatchReferenceSet) {
  // Property: agree with std::unordered_set over random sparse ids.
  SmallPeerSet set;
  std::unordered_set<std::uint32_t> reference;
  StreamRng rng(42);
  for (int i = 0; i < 5'000; ++i) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_below(1u << 30));
    EXPECT_EQ(set.insert(PeerId(id)), reference.insert(id).second);
  }
  EXPECT_EQ(set.size(), reference.size());
  for (int i = 0; i < 5'000; ++i) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_below(1u << 30));
    EXPECT_EQ(set.contains(PeerId(id)), reference.contains(id));
  }
}

}  // namespace
}  // namespace updp2p::common

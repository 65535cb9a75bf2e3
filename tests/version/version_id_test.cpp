#include "version/version_id.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace updp2p::version {
namespace {

using common::PeerId;
using common::StreamRng;

TEST(VersionId, DefaultIsNull) {
  VersionId id;
  EXPECT_TRUE(id.is_null());
}

TEST(VersionId, MintedIdsAreNotNull) {
  VersionIdFactory factory(PeerId(1), StreamRng(42));
  EXPECT_FALSE(factory.mint(0.0).is_null());
}

TEST(VersionId, MintedIdsAreUnique) {
  VersionIdFactory factory(PeerId(1), StreamRng(42));
  std::unordered_set<VersionId> seen;
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_TRUE(seen.insert(factory.mint(1.5)).second) << "dup at " << i;
  }
}

TEST(VersionId, DistinctPeersMintDistinctIds) {
  VersionIdFactory a(PeerId(1), StreamRng(42));
  VersionIdFactory b(PeerId(2), StreamRng(42));
  EXPECT_NE(a.mint(0.0), b.mint(0.0));
}

TEST(VersionId, DeterministicGivenSeed) {
  VersionIdFactory a(PeerId(1), StreamRng(42));
  VersionIdFactory b(PeerId(1), StreamRng(42));
  EXPECT_EQ(a.mint(3.0), b.mint(3.0));
}

TEST(VersionId, ToStringIs32Hex) {
  VersionIdFactory factory(PeerId(9), StreamRng(1));
  EXPECT_EQ(factory.mint(0.0).to_string().size(), 32u);
}

}  // namespace
}  // namespace updp2p::version

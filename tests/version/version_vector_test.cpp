#include "version/version_vector.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace updp2p::version {
namespace {

using common::PeerId;

TEST(VersionVector, EmptyVectorsAreEqual) {
  VersionVector a, b;
  EXPECT_EQ(a.compare(b), Causality::kEqual);
  EXPECT_TRUE(a.covered_by(b));
}

TEST(VersionVector, IncrementCreatesDominance) {
  VersionVector a, b;
  a.increment(PeerId(1));
  EXPECT_EQ(a.compare(b), Causality::kDominates);
  EXPECT_EQ(b.compare(a), Causality::kDominatedBy);
  EXPECT_TRUE(b.covered_by(a));
  EXPECT_FALSE(a.covered_by(b));
}

TEST(VersionVector, ConcurrentWhenBothAdvanced) {
  VersionVector a, b;
  a.increment(PeerId(1));
  b.increment(PeerId(2));
  EXPECT_EQ(a.compare(b), Causality::kConcurrent);
  EXPECT_EQ(b.compare(a), Causality::kConcurrent);
  EXPECT_FALSE(a.covered_by(b));
}

TEST(VersionVector, IncrementReturnsNewCounter) {
  VersionVector vv;
  EXPECT_EQ(vv.increment(PeerId(5)), 1u);
  EXPECT_EQ(vv.increment(PeerId(5)), 2u);
  EXPECT_EQ(vv.get(PeerId(5)), 2u);
  EXPECT_EQ(vv.get(PeerId(6)), 0u);
}

TEST(VersionVector, ObserveTakesMaximum) {
  VersionVector vv;
  vv.observe(PeerId(1), 5);
  vv.observe(PeerId(1), 3);
  EXPECT_EQ(vv.get(PeerId(1)), 5u);
  vv.observe(PeerId(1), 9);
  EXPECT_EQ(vv.get(PeerId(1)), 9u);
}

TEST(VersionVector, ObserveZeroStaysImplicit) {
  VersionVector vv;
  vv.observe(PeerId(1), 0);
  EXPECT_TRUE(vv.empty());
  EXPECT_EQ(vv.entry_count(), 0u);
}

TEST(VersionVector, MergeIsComponentwiseMax) {
  VersionVector a, b;
  a.observe(PeerId(1), 3);
  a.observe(PeerId(2), 1);
  b.observe(PeerId(1), 1);
  b.observe(PeerId(3), 7);
  a.merge(b);
  EXPECT_EQ(a.get(PeerId(1)), 3u);
  EXPECT_EQ(a.get(PeerId(2)), 1u);
  EXPECT_EQ(a.get(PeerId(3)), 7u);
}

TEST(VersionVector, MergedVectorCoversBothInputs) {
  VersionVector a, b;
  a.observe(PeerId(1), 3);
  b.observe(PeerId(2), 2);
  VersionVector merged = a;
  merged.merge(b);
  EXPECT_TRUE(a.covered_by(merged));
  EXPECT_TRUE(b.covered_by(merged));
}

TEST(VersionVector, TotalEvents) {
  VersionVector vv;
  vv.observe(PeerId(1), 3);
  vv.observe(PeerId(9), 4);
  EXPECT_EQ(vv.total_events(), 7u);
}

TEST(VersionVector, ToStringContainsEntries) {
  VersionVector vv;
  vv.observe(PeerId(1), 3);
  EXPECT_EQ(vv.to_string(), "{1:3}");
}

TEST(VersionVector, ComparisonWithDisjointSupport) {
  VersionVector a, b;
  a.observe(PeerId(1), 1);
  a.observe(PeerId(2), 1);
  b.observe(PeerId(2), 1);
  EXPECT_EQ(a.compare(b), Causality::kDominates);
}

TEST(VersionVector, CausalityToString) {
  EXPECT_STREQ(to_string(Causality::kEqual), "equal");
  EXPECT_STREQ(to_string(Causality::kConcurrent), "concurrent");
}

// --- property tests over random operation sequences -------------------------

class VersionVectorProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  VersionVector random_vector(common::StreamRng& rng) {
    VersionVector vv;
    const auto entries = rng.uniform_below(6);
    for (std::uint64_t i = 0; i < entries; ++i) {
      vv.observe(PeerId(static_cast<std::uint32_t>(rng.uniform_below(4))),
                 rng.uniform_below(5) + 1);
    }
    return vv;
  }
};

TEST_P(VersionVectorProperty, CompareIsAntisymmetric) {
  common::StreamRng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const auto a = random_vector(rng);
    const auto b = random_vector(rng);
    const auto ab = a.compare(b);
    const auto ba = b.compare(a);
    switch (ab) {
      case Causality::kEqual: EXPECT_EQ(ba, Causality::kEqual); break;
      case Causality::kDominates: EXPECT_EQ(ba, Causality::kDominatedBy); break;
      case Causality::kDominatedBy: EXPECT_EQ(ba, Causality::kDominates); break;
      case Causality::kConcurrent: EXPECT_EQ(ba, Causality::kConcurrent); break;
    }
  }
}

TEST_P(VersionVectorProperty, MergeIsIdempotentCommutativeAssociative) {
  common::StreamRng rng(GetParam() ^ 0xabcdef);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_vector(rng);
    const auto b = random_vector(rng);
    const auto c = random_vector(rng);

    VersionVector aa = a;
    aa.merge(a);
    EXPECT_EQ(aa, a);  // idempotent

    VersionVector ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab, ba);  // commutative

    VersionVector ab_c = ab, a_bc = a, bc = b;
    ab_c.merge(c);
    bc.merge(c);
    a_bc.merge(bc);
    EXPECT_EQ(ab_c, a_bc);  // associative
  }
}

TEST_P(VersionVectorProperty, MergeIsLeastUpperBound) {
  common::StreamRng rng(GetParam() ^ 0x5555);
  for (int i = 0; i < 200; ++i) {
    const auto a = random_vector(rng);
    const auto b = random_vector(rng);
    VersionVector merged = a;
    merged.merge(b);
    EXPECT_TRUE(a.covered_by(merged));
    EXPECT_TRUE(b.covered_by(merged));
    // Least: merged has no counter above max(a, b).
    for (const auto& [peer, counter] : merged.entries()) {
      EXPECT_EQ(counter, std::max(a.get(peer), b.get(peer)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionVectorProperty,
                         ::testing::Values(1, 2, 3, 7, 1234));

}  // namespace
}  // namespace updp2p::version

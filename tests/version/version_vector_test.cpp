#include "version/version_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

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

/// The representation VersionVector had as a std::map, kept as the
/// reference: observe() keeps zeros implicit, merge() observes every entry.
class MapReference {
 public:
  std::uint64_t increment(PeerId peer) { return ++counters_[peer]; }
  void observe(PeerId peer, std::uint64_t counter) {
    if (counter == 0) return;
    auto& slot = counters_[peer];
    slot = std::max(slot, counter);
  }
  [[nodiscard]] std::uint64_t get(PeerId peer) const {
    const auto it = counters_.find(peer);
    return it == counters_.end() ? 0 : it->second;
  }
  void merge(const MapReference& other) {
    for (const auto& [peer, counter] : other.counters_) observe(peer, counter);
  }
  [[nodiscard]] Causality compare(const MapReference& other) const {
    bool greater = false;
    bool less = false;
    for (const auto& [peer, counter] : counters_) {
      greater |= counter > other.get(peer);
      less |= counter < other.get(peer);
    }
    for (const auto& [peer, counter] : other.counters_) {
      greater |= get(peer) > counter;
      less |= get(peer) < counter;
    }
    if (greater && less) return Causality::kConcurrent;
    if (greater) return Causality::kDominates;
    return less ? Causality::kDominatedBy : Causality::kEqual;
  }
  [[nodiscard]] std::uint64_t total_events() const {
    std::uint64_t total = 0;
    for (const auto& [peer, counter] : counters_) total += counter;
    return total;
  }
  friend bool operator==(const MapReference&, const MapReference&) = default;

  std::map<PeerId, std::uint64_t> counters_;
};

void expect_matches(const VersionVector& vv, const MapReference& ref) {
  const std::vector<VersionVector::Entry> expected(ref.counters_.begin(),
                                                   ref.counters_.end());
  ASSERT_TRUE(std::ranges::equal(vv.entries(), expected)) << vv;
  EXPECT_EQ(vv.entry_count(), ref.counters_.size());
  EXPECT_EQ(vv.total_events(), ref.total_events());
  for (std::size_t i = 0; i < vv.entries().size(); ++i) {
    EXPECT_NE(vv.entries()[i].second, 0u);
    if (i > 0) {
      EXPECT_LT(vv.entries()[i - 1].first, vv.entries()[i].first);
    }
  }
}

TEST_P(VersionVectorProperty, AgreesWithMapReferenceUnderRandomOperations) {
  common::StreamRng rng(GetParam() ^ 0x77aa);
  constexpr int kVectors = 4;
  std::vector<VersionVector> vectors(kVectors);
  std::vector<MapReference> refs(kVectors);
  // Up to 40 writers, so the arrays grow past a handful of entries and
  // observe() lands before, between and after existing ones.
  const auto random_peer = [&rng] {
    return PeerId(static_cast<std::uint32_t>(rng.uniform_below(40)));
  };
  for (int step = 0; step < 3000; ++step) {
    const auto a = static_cast<std::size_t>(rng.uniform_below(kVectors));
    const auto b = static_cast<std::size_t>(rng.uniform_below(kVectors));
    switch (rng.uniform_below(7)) {
      case 0: {
        const PeerId peer = random_peer();
        EXPECT_EQ(vectors[a].increment(peer), refs[a].increment(peer));
        break;
      }
      case 1:
      case 2: {
        // A zero in one case in six: it must stay implicit.
        const PeerId peer = random_peer();
        const std::uint64_t counter = rng.uniform_below(6) == 0
                                          ? 0
                                          : rng.uniform_below(50) + 1;
        vectors[a].observe(peer, counter);
        refs[a].observe(peer, counter);
        break;
      }
      case 3: {
        vectors[a].merge(vectors[b]);  // a == b merges a vector with itself
        refs[a].merge(refs[b]);
        break;
      }
      case 4: {
        const PeerId peer = random_peer();
        EXPECT_EQ(vectors[a].get(peer), refs[a].get(peer));
        break;
      }
      case 5: {
        EXPECT_EQ(vectors[a].compare(vectors[b]), refs[a].compare(refs[b]));
        EXPECT_EQ(vectors[a] == vectors[b], refs[a] == refs[b]);
        break;
      }
      default: {
        // Reset now and then, so short vectors keep being exercised too.
        if (rng.uniform_below(8) == 0) {
          vectors[a] = VersionVector{};
          refs[a] = MapReference{};
        }
        break;
      }
    }
    expect_matches(vectors[a], refs[a]);
  }
}

TEST_P(VersionVectorProperty, FromEntriesMatchesObserveInOrder) {
  common::StreamRng rng(GetParam() ^ 0x1f1f);
  for (int i = 0; i < 300; ++i) {
    // Any order, repeated peers, zero counters.
    std::vector<VersionVector::Entry> entries(rng.uniform_below(30));
    VersionVector observed;
    for (auto& [peer, counter] : entries) {
      peer = PeerId(static_cast<std::uint32_t>(rng.uniform_below(12)));
      counter = rng.uniform_below(4) == 0 ? 0 : rng.uniform_below(9) + 1;
      observed.observe(peer, counter);
    }
    if (rng.uniform_below(3) == 0) {
      std::ranges::sort(entries, {}, &VersionVector::Entry::first);
    }
    EXPECT_EQ(VersionVector::from_entries(entries), observed);
  }
}

TEST(VersionVector, MergeWithNoNewPeerKeepsTheArray) {
  VersionVector summary;
  for (std::uint32_t p = 0; p < 64; ++p) summary.observe(PeerId(p * 2), 1);
  VersionVector history;
  history.observe(PeerId(10), 5);
  history.observe(PeerId(126), 2);
  const auto* storage = summary.entries().data();
  summary.merge(history);
  EXPECT_EQ(summary.entries().data(), storage);  // raised in place
  EXPECT_EQ(summary.get(PeerId(10)), 5u);
  EXPECT_EQ(summary.get(PeerId(126)), 2u);
  EXPECT_EQ(summary.entry_count(), 64u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionVectorProperty,
                         ::testing::Values(1, 2, 3, 7, 1234));

}  // namespace
}  // namespace updp2p::version

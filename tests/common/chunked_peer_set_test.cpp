// ChunkedPeerSet: the compressed flooding-list representation. The tests
// lean on a std::set reference model — every operation must agree with
// plain set algebra — plus targeted checks of the canonical-form invariant
// (array <-> bitmap promotion at kArrayChunkMax) that equality and the
// wire encoding depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/chunked_peer_set.hpp"
#include "common/rng.hpp"

namespace updp2p::common {
namespace {

std::vector<PeerId> contents(const ChunkedPeerSet& set) {
  std::vector<PeerId> out;
  set.for_each([&out](PeerId peer) { out.push_back(peer); });
  return out;
}

void expect_matches(const ChunkedPeerSet& set,
                    const std::set<std::uint32_t>& reference) {
  ASSERT_EQ(set.size(), reference.size());
  std::vector<std::uint32_t> seen;
  set.for_each([&seen](PeerId peer) { seen.push_back(peer.value()); });
  // Ascending iteration is part of the contract.
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  std::vector<std::uint32_t> expected(reference.begin(), reference.end());
  EXPECT_EQ(seen, expected);
  for (const std::uint32_t id : expected) {
    EXPECT_TRUE(set.contains(PeerId(id))) << id;
  }
}

TEST(ChunkedPeerSet, BasicInsertContains) {
  ChunkedPeerSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert(PeerId(5)));
  EXPECT_FALSE(set.insert(PeerId(5)));
  EXPECT_TRUE(set.insert(PeerId(70'000)));  // second chunk
  EXPECT_TRUE(set.insert(PeerId(0)));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(PeerId(5)));
  EXPECT_TRUE(set.contains(PeerId(70'000)));
  EXPECT_FALSE(set.contains(PeerId(6)));
  EXPECT_FALSE(set.contains(PeerId::invalid()));
  EXPECT_EQ(set.max_id(), 70'000u);
  const auto ids = contents(set);
  EXPECT_EQ(ids, (std::vector<PeerId>{PeerId(0), PeerId(5), PeerId(70'000)}));
}

TEST(ChunkedPeerSet, PromotesToBitmapAndBack) {
  ChunkedPeerSet set;
  // Fill one chunk past the array limit: representation must flip to a
  // bitmap exactly when cardinality exceeds kArrayChunkMax.
  for (std::uint32_t i = 0; i <= ChunkedPeerSet::kArrayChunkMax; ++i) {
    set.insert(PeerId(i * 2));  // spread out, still one chunk? (ids < 2^16)
  }
  // 2*(4096) = 8192 < 65536: single chunk.
  ASSERT_EQ(set.chunks().size(), 1u);
  EXPECT_TRUE(set.chunks().front().is_bitmap());
  EXPECT_EQ(set.size(), ChunkedPeerSet::kArrayChunkMax + 1u);
  for (std::uint32_t i = 0; i <= ChunkedPeerSet::kArrayChunkMax; ++i) {
    EXPECT_TRUE(set.contains(PeerId(i * 2)));
    EXPECT_FALSE(set.contains(PeerId(i * 2 + 1)));
  }
  // Dropping below the boundary must demote back to an array (canonical
  // form is a function of contents alone).
  set.keep_lowest(ChunkedPeerSet::kArrayChunkMax);
  ASSERT_EQ(set.chunks().size(), 1u);
  EXPECT_FALSE(set.chunks().front().is_bitmap());
  EXPECT_EQ(set.size(), std::size_t{ChunkedPeerSet::kArrayChunkMax});
}

TEST(ChunkedPeerSet, EqualityIsContentBased) {
  ChunkedPeerSet a;
  ChunkedPeerSet b;
  // Same contents, different insertion orders and histories.
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < 6000; ++i) ids.push_back(i * 3);
  for (const std::uint32_t id : ids) a.insert(PeerId(id));
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) b.insert(PeerId(*it));
  EXPECT_TRUE(a == b);
  b.insert(PeerId(1));
  EXPECT_FALSE(a == b);
}

TEST(ChunkedPeerSet, AbsorbReportsExactlyTheDifference) {
  StreamRng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    ChunkedPeerSet mine;
    ChunkedPeerSet theirs;
    std::set<std::uint32_t> ref_mine;
    std::set<std::uint32_t> ref_theirs;
    const auto n = 1 + rng.uniform_below(6000);
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto a = static_cast<std::uint32_t>(rng.uniform_below(200'000));
      const auto b = static_cast<std::uint32_t>(rng.uniform_below(200'000));
      mine.insert(PeerId(a));
      ref_mine.insert(a);
      theirs.insert(PeerId(b));
      ref_theirs.insert(b);
    }
    std::vector<std::uint32_t> reported;
    mine.absorb(theirs, [&reported](PeerId peer) {
      reported.push_back(peer.value());
    });
    // Reported = theirs \ mine, ascending.
    std::vector<std::uint32_t> expected;
    for (const std::uint32_t id : ref_theirs) {
      if (!ref_mine.contains(id)) expected.push_back(id);
    }
    EXPECT_EQ(reported, expected);
    ref_mine.insert(ref_theirs.begin(), ref_theirs.end());
    expect_matches(mine, ref_mine);
  }
}

TEST(ChunkedPeerSet, SubtractMatchesReference) {
  StreamRng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    ChunkedPeerSet mine;
    ChunkedPeerSet theirs;
    std::set<std::uint32_t> ref_mine;
    std::set<std::uint32_t> ref_theirs;
    const auto n = 1 + rng.uniform_below(6000);
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto a = static_cast<std::uint32_t>(rng.uniform_below(150'000));
      mine.insert(PeerId(a));
      ref_mine.insert(a);
      // Half-overlapping universe exercises both hit and miss paths.
      const auto b = static_cast<std::uint32_t>(rng.uniform_below(150'000));
      if (rng.bernoulli(0.5)) {
        theirs.insert(PeerId(a));
        ref_theirs.insert(a);
      }
      theirs.insert(PeerId(b));
      ref_theirs.insert(b);
    }
    mine.subtract(theirs);
    for (const std::uint32_t id : ref_theirs) ref_mine.erase(id);
    expect_matches(mine, ref_mine);
  }
}

TEST(ChunkedPeerSet, SubtractGallopingSmallVsLargeArrays) {
  // Small array chunk minus large array chunk takes the galloping path.
  ChunkedPeerSet small;
  ChunkedPeerSet large;
  std::set<std::uint32_t> ref;
  for (std::uint32_t i = 0; i < 4000; ++i) large.insert(PeerId(i));
  for (const std::uint32_t id : {10u, 4'001u, 15u, 50'000u}) {
    small.insert(PeerId(id));
    ref.insert(id);
  }
  small.subtract(large);
  ref.erase(10u);
  ref.erase(15u);
  expect_matches(small, ref);
}

TEST(ChunkedPeerSet, KeepLowestAndHighest) {
  StreamRng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::set<std::uint32_t> ref;
    ChunkedPeerSet set;
    const auto n = 1 + rng.uniform_below(9000);
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_below(140'000));
      set.insert(PeerId(id));
      ref.insert(id);
    }
    ChunkedPeerSet low = set;
    ChunkedPeerSet high = set;
    const std::size_t cap = 1 + rng.uniform_below(ref.size());
    low.keep_lowest(cap);
    high.keep_highest(cap);

    std::vector<std::uint32_t> sorted(ref.begin(), ref.end());
    std::set<std::uint32_t> expect_low(sorted.begin(),
                                       sorted.begin() +
                                           static_cast<std::ptrdiff_t>(cap));
    std::set<std::uint32_t> expect_high(
        sorted.end() - static_cast<std::ptrdiff_t>(cap), sorted.end());
    expect_matches(low, expect_low);
    expect_matches(high, expect_high);
  }
}

TEST(ChunkedPeerSet, KeepRandomSamplesUniformlyWithoutReplacement) {
  ChunkedPeerSet base;
  for (std::uint32_t i = 0; i < 10'000; ++i) base.insert(PeerId(i * 7));
  StreamRng rng(123);
  std::vector<std::uint64_t> hits(10'000, 0);
  for (int trial = 0; trial < 200; ++trial) {
    ChunkedPeerSet set = base;
    set.keep_random(rng, 500);
    ASSERT_EQ(set.size(), 500u);
    std::uint32_t prev = 0;
    bool first = true;
    set.for_each([&](PeerId peer) {
      EXPECT_EQ(peer.value() % 7, 0u);
      if (!first) {
        EXPECT_GT(peer.value(), prev);  // distinct + ascending
      }
      prev = peer.value();
      first = false;
      ++hits[peer.value() / 7];
    });
  }
  // Uniformity smoke check: every element expected ~10 times over 200
  // trials of 500/10k; none should be starved or wildly oversampled.
  const auto [min_it, max_it] = std::minmax_element(hits.begin(), hits.end());
  EXPECT_GT(*max_it, 0u);
  EXPECT_LT(*max_it, 40u);
}

TEST(ChunkedPeerSet, KeepRandomCapAtLeastSizeIsIdentity) {
  ChunkedPeerSet set{PeerId(1), PeerId(2), PeerId(3)};
  const ChunkedPeerSet before = set;
  StreamRng rng(5);
  set.keep_random(rng, 3);
  EXPECT_TRUE(set == before);
  set.keep_random(rng, 10);
  EXPECT_TRUE(set == before);
  set.keep_random(rng, 0);
  EXPECT_TRUE(set.empty());
}

TEST(ChunkedPeerSet, ClearReusesBuffersAndResets) {
  ChunkedPeerSet set;
  for (std::uint32_t i = 0; i < 5000; ++i) set.insert(PeerId(i));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.chunks().size(), 0u);
  for (std::uint32_t i = 0; i < 100; ++i) set.insert(PeerId(i + 65'536));
  std::set<std::uint32_t> ref;
  for (std::uint32_t i = 0; i < 100; ++i) ref.insert(i + 65'536);
  expect_matches(set, ref);
}

TEST(ChunkedPeerSet, WireEncodedBytesTracksForm) {
  ChunkedPeerSet sparse;
  sparse.insert(PeerId(100));
  sparse.insert(PeerId(101));
  sparse.insert(PeerId(400));
  // 1 (chunk count) + 1 (key) + 1 (form) + 1 (cardinality) +
  // varint(100)=1 + delta-1 varints: (101-100-1)=0 -> 1 byte,
  // (400-101-1)=298 -> 2 bytes.
  EXPECT_EQ(sparse.wire_encoded_bytes(), 8u);

  ChunkedPeerSet dense;
  for (std::uint32_t i = 0; i <= ChunkedPeerSet::kArrayChunkMax; ++i) {
    dense.insert(PeerId(i));
  }
  // Bitmap body is fixed 8 KiB + small header.
  const std::size_t bytes = dense.wire_encoded_bytes();
  EXPECT_GE(bytes, ChunkedPeerSet::kBitmapWords * 8);
  EXPECT_LE(bytes, ChunkedPeerSet::kBitmapWords * 8 + 8);
}

TEST(ChunkedPeerSet, AppendChunkBuildersEnforceCanonicalForm) {
  ChunkedPeerSet set;
  const std::vector<std::uint16_t> lows{1, 5, 9};
  EXPECT_TRUE(set.append_array_chunk(2, lows));
  // Keys must strictly increase.
  EXPECT_FALSE(set.append_array_chunk(2, lows));
  EXPECT_FALSE(set.append_array_chunk(1, lows));
  // Lows must strictly increase.
  const std::vector<std::uint16_t> bad{3, 3};
  EXPECT_FALSE(set.append_array_chunk(7, bad));
  // Empty and oversized arrays are rejected.
  EXPECT_FALSE(set.append_array_chunk(7, std::vector<std::uint16_t>{}));
  std::vector<std::uint16_t> too_many(ChunkedPeerSet::kArrayChunkMax + 1);
  for (std::size_t i = 0; i < too_many.size(); ++i) {
    too_many[i] = static_cast<std::uint16_t>(i);
  }
  EXPECT_FALSE(set.append_array_chunk(7, too_many));

  // A bitmap chunk must carry more than kArrayChunkMax ids.
  std::vector<std::uint64_t> sparse_words(ChunkedPeerSet::kBitmapWords, 0);
  sparse_words[0] = 0xFF;
  EXPECT_FALSE(set.append_bitmap_chunk(9, sparse_words));
  std::vector<std::uint64_t> dense_words(ChunkedPeerSet::kBitmapWords, ~0ULL);
  EXPECT_TRUE(set.append_bitmap_chunk(9, dense_words));
  EXPECT_EQ(set.size(), 3u + ChunkedPeerSet::kChunkSpan);
  EXPECT_TRUE(set.contains(PeerId((2u << 16) | 5u)));
  EXPECT_TRUE(set.contains(PeerId(9u << 16)));

  // The builder-made set equals an insert-made set (canonical form).
  ChunkedPeerSet by_insert;
  for (const std::uint16_t low : lows) {
    by_insert.insert(PeerId((2u << 16) | low));
  }
  for (std::uint32_t i = 0; i < ChunkedPeerSet::kChunkSpan; ++i) {
    by_insert.insert(PeerId((9u << 16) | i));
  }
  EXPECT_TRUE(set == by_insert);
}

TEST(ChunkedPeerSet, RandomisedModelCheck) {
  // Mixed-operation fuzz against the reference model.
  StreamRng rng(991);
  ChunkedPeerSet set;
  std::set<std::uint32_t> ref;
  for (int step = 0; step < 20'000; ++step) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_below(300'000));
    switch (rng.uniform_below(4)) {
      case 0:
      case 1: {
        EXPECT_EQ(set.insert(PeerId(id)), ref.insert(id).second);
        break;
      }
      case 2:
        EXPECT_EQ(set.contains(PeerId(id)), ref.contains(id));
        break;
      default:
        if (!ref.empty() && rng.bernoulli(0.01)) {
          const std::size_t cap = 1 + rng.uniform_below(ref.size());
          set.keep_lowest(cap);
          std::vector<std::uint32_t> sorted(ref.begin(), ref.end());
          ref = std::set<std::uint32_t>(
              sorted.begin(),
              sorted.begin() + static_cast<std::ptrdiff_t>(cap));
        }
        break;
    }
  }
  expect_matches(set, ref);
}

}  // namespace
}  // namespace updp2p::common

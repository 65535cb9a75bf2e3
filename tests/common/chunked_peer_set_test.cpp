// ChunkedPeerSet: the compressed flooding-list representation. The tests
// lean on a std::set reference model — every operation must agree with
// plain set algebra — plus targeted checks of the canonical-form invariant
// (array <-> bitmap promotion at kArrayChunkMax) that equality and the
// wire encoding depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <set>
#include <thread>
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
  if (!reference.empty()) {
    EXPECT_EQ(set.max_id(), *reference.rbegin());
  }
  for (const ChunkedPeerSet::Chunk& chunk : set.chunks()) {
    EXPECT_EQ(chunk.is_bitmap(),
              chunk.cardinality > ChunkedPeerSet::kArrayChunkMax);
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
  // The union's size delta is exactly |theirs \ mine| — how
  // ReplicaView::merge counts new members — and the result is the union.
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
    const std::size_t before = mine.size();
    mine.insert_all(theirs);
    std::size_t novel = 0;
    for (const std::uint32_t id : ref_theirs) {
      if (!ref_mine.contains(id)) ++novel;
    }
    EXPECT_EQ(mine.size() - before, novel);
    ref_mine.insert(ref_theirs.begin(), ref_theirs.end());
    expect_matches(mine, ref_mine);
  }
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

TEST(ChunkedPeerSet, CopyOnWriteModelCheck) {
  // A family of sets derived from one another by copy, assignment and
  // insert_all shares bitmap buffers. Random writes to any member must
  // leave every other member — the never-written root included — equal
  // to its own model: no write may leak into another holder.
  StreamRng rng(2718);
  ChunkedPeerSet root;
  std::set<std::uint32_t> root_ref;
  // Two bitmap chunks and a sparse array chunk.
  for (std::uint32_t id = 0; id < 2 * ChunkedPeerSet::kChunkSpan + 300;
       ++id) {
    if (rng.bernoulli(id < 2 * ChunkedPeerSet::kChunkSpan ? 0.08 : 0.3)) {
      root.insert(PeerId(id));
      root_ref.insert(id);
    }
  }
  ASSERT_TRUE(root.chunks()[0].is_bitmap());
  ASSERT_TRUE(root.chunks()[1].is_bitmap());
  ASSERT_FALSE(root.chunks()[2].is_bitmap());

  constexpr std::size_t kFamily = 5;
  std::vector<ChunkedPeerSet> sets(kFamily, root);
  std::vector<std::set<std::uint32_t>> refs(kFamily, root_ref);
  for (const ChunkedPeerSet& set : sets) {
    EXPECT_EQ(set.chunks()[0].words().data(), root.chunks()[0].words().data());
  }
  const auto random_id = [&rng] {
    return static_cast<std::uint32_t>(
        rng.uniform_below(3 * ChunkedPeerSet::kChunkSpan));
  };
  std::vector<std::uint16_t> lows;
  for (int step = 0; step < 400; ++step) {
    const auto i = static_cast<std::size_t>(rng.uniform_below(kFamily));
    const auto j = static_cast<std::size_t>(rng.uniform_below(kFamily));
    ChunkedPeerSet& set = sets[i];
    std::set<std::uint32_t>& ref = refs[i];
    switch (rng.uniform_below(10)) {
      case 0: {  // copy construction shares every bitmap
        ChunkedPeerSet copy(sets[j]);
        for (std::size_t c = 0; c < copy.chunks().size(); ++c) {
          EXPECT_EQ(copy.chunks()[c].words().data(),
                    sets[j].chunks()[c].words().data());
        }
        set = std::move(copy);
        ref = refs[j];
        break;
      }
      case 1:
        set = sets[j];
        ref = refs[j];
        break;
      case 2: {
        const bool from_root = rng.bernoulli(0.5);
        set.insert_all(from_root ? root : sets[j]);
        const auto& other = from_root ? root_ref : refs[j];
        ref.insert(other.begin(), other.end());
        break;
      }
      case 3:
        for (int k = 0; k < 20; ++k) {
          const std::uint32_t id = random_id();
          ASSERT_EQ(set.insert(PeerId(id)), ref.insert(id).second);
        }
        break;
      case 4:
      case 5: {
        if (ref.empty()) break;
        // Caps near the size keep bitmaps bitmaps; small ones demote.
        const std::size_t cap =
            rng.bernoulli(0.7) ? ref.size() - rng.uniform_below(ref.size())
                               : rng.uniform_below(ref.size() + 1);
        std::vector<std::uint32_t> sorted(ref.begin(), ref.end());
        if (rng.bernoulli(0.5)) {
          set.keep_lowest(cap);
          sorted.resize(std::min(cap, sorted.size()));
        } else {
          set.keep_highest(cap);
          sorted.erase(sorted.begin(),
                       sorted.end() - static_cast<std::ptrdiff_t>(
                                          std::min(cap, sorted.size())));
        }
        ref = std::set<std::uint32_t>(sorted.begin(), sorted.end());
        break;
      }
      case 6: {
        const std::size_t cap = ref.size() - ref.size() / 8;
        set.keep_random(rng, cap);
        // The sample is random: the model checks it is a cap-subset, then
        // adopts it.
        std::set<std::uint32_t> kept;
        set.for_each([&kept](PeerId p) { kept.insert(p.value()); });
        ASSERT_EQ(kept.size(), std::min(cap, ref.size()));
        for (const std::uint32_t id : kept) ASSERT_TRUE(ref.contains(id));
        ref = std::move(kept);
        break;
      }
      case 7:
        if (rng.bernoulli(0.2)) {
          set.clear();
          ref.clear();
        }
        break;
      default: {
        // The wire decoder's path: rebuild from another member's chunks.
        const ChunkedPeerSet source = sets[j];
        set.clear();
        for (const ChunkedPeerSet::Chunk& chunk : source.chunks()) {
          if (chunk.is_bitmap()) {
            ASSERT_TRUE(set.append_bitmap_chunk(chunk.key, chunk.words()));
          } else {
            lows.assign(chunk.lows.begin(), chunk.lows.end());
            ASSERT_TRUE(set.append_array_chunk(chunk.key, lows));
          }
        }
        ref = refs[j];
        break;
      }
    }
    for (std::size_t k = 0; k < kFamily; ++k) {
      SCOPED_TRACE(testing::Message() << "step " << step << " set " << k);
      ASSERT_NO_FATAL_FAILURE(expect_matches(sets[k], refs[k]));
    }
    ASSERT_NO_FATAL_FAILURE(expect_matches(root, root_ref));
  }
}

TEST(ChunkedPeerSet, AssignUnionCompactNewKeepsOrderAndFirstOccurrence) {
  const ChunkedPeerSet base{PeerId(3), PeerId(7), PeerId(70'000)};
  std::vector<PeerId> ids{PeerId(9),      PeerId(7), PeerId(200'000),
                          PeerId(9),      PeerId(1), PeerId(70'000),
                          PeerId(70'001)};
  ChunkedPeerSet out{PeerId(42)};  // replaced, not extended
  const std::size_t kept =
      out.assign_union_compact_new(base, ids, PeerId(5));
  ids.resize(kept);
  EXPECT_EQ(ids, (std::vector<PeerId>{PeerId(9), PeerId(200'000), PeerId(1),
                                      PeerId(70'001)}));
  expect_matches(out, {1, 3, 5, 7, 9, 70'000, 70'001, 200'000});
  // `also` is inserted but never counted, and an invalid one is skipped.
  std::vector<PeerId> none{PeerId(3)};
  EXPECT_EQ(out.assign_union_compact_new(base, none, PeerId::invalid()), 0u);
  expect_matches(out, {3, 7, 70'000});
}

TEST(ChunkedPeerSet, AssignUnionCompactNewTopChunkIgnoresDroppedIds) {
  // A dropped id is marked with PeerId::invalid(), whose high half is the
  // top chunk key: the top chunk's sweep must not read it as an id.
  const ChunkedPeerSet base{PeerId(5)};
  std::vector<PeerId> ids{PeerId(5), PeerId(0xFFFF'0001u), PeerId(6)};
  ChunkedPeerSet out;
  ids.resize(out.assign_union_compact_new(base, ids, PeerId::invalid()));
  EXPECT_EQ(ids, (std::vector<PeerId>{PeerId(0xFFFF'0001u), PeerId(6)}));
  expect_matches(out, {5, 6, 0xFFFF'0001u});
}

TEST(ChunkedPeerSet, AssignUnionCompactNewSharesBitmapsItDoesNotWrite) {
  ChunkedPeerSet base;
  for (std::uint32_t id = 0; id < 2 * ChunkedPeerSet::kChunkSpan; id += 2) {
    base.insert(PeerId(id));
  }
  // Every id already present: both bitmap chunks stay shared.
  std::vector<PeerId> ids{PeerId(2), PeerId(70'000)};
  ChunkedPeerSet out;
  EXPECT_EQ(out.assign_union_compact_new(base, ids, PeerId(4)), 0u);
  ASSERT_EQ(out.chunks().size(), 2u);
  EXPECT_EQ(out.chunks()[0].bitmap.data(), base.chunks()[0].bitmap.data());
  EXPECT_EQ(out.chunks()[1].bitmap.data(), base.chunks()[1].bitmap.data());
  // A new id unshares its chunk only; base is untouched.
  ids = {PeerId(70'001)};
  EXPECT_EQ(out.assign_union_compact_new(base, ids, PeerId(4)), 1u);
  EXPECT_EQ(out.chunks()[0].bitmap.data(), base.chunks()[0].bitmap.data());
  EXPECT_NE(out.chunks()[1].bitmap.data(), base.chunks()[1].bitmap.data());
  EXPECT_FALSE(base.contains(PeerId(70'001)));
  EXPECT_TRUE(out.contains(PeerId(70'001)));
  EXPECT_EQ(out.size(), base.size() + 1);
}

TEST(ChunkedPeerSet, AssignUnionCompactNewModelCheck) {
  // Random bases (empty, sparse arrays, bitmap chunks) and random id lists
  // over one to four chunks against plain set algebra, with one output
  // set reused throughout so parked buffers are exercised too.
  StreamRng rng(4242);
  ChunkedPeerSet out;
  for (int trial = 0; trial < 150; ++trial) {
    const std::uint32_t universe =
        std::array<std::uint32_t, 3>{64, 10'000, 200'000}[trial % 3];
    const double density =
        std::array<double, 4>{0.0, 0.01, 0.3, 0.9}[rng.uniform_below(4)];
    ChunkedPeerSet base;
    std::set<std::uint32_t> ref;
    for (std::uint32_t id = 0; id < universe; ++id) {
      if (density > 0.0 && rng.bernoulli(density)) {
        base.insert(PeerId(id));
        ref.insert(id);
      }
    }
    std::vector<PeerId> ids;
    const auto count = rng.uniform_below(130);
    for (std::uint64_t i = 0; i < count; ++i) {
      ids.emplace_back(static_cast<std::uint32_t>(rng.uniform_below(universe)));
    }
    const PeerId also(static_cast<std::uint32_t>(rng.uniform_below(universe)));
    std::vector<PeerId> expected_new;
    for (const PeerId id : ids) {
      if (ref.insert(id.value()).second) expected_new.push_back(id);
    }
    ref.insert(also.value());
    ids.resize(out.assign_union_compact_new(base, ids, also));
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    EXPECT_EQ(ids, expected_new);
    ASSERT_NO_FATAL_FAILURE(expect_matches(out, ref));
  }
}

TEST(ChunkedPeerSet, SharedBuffersAcrossThreads) {
  // Threads copy one shared set, write their copies (each write unshares)
  // and drop them while reading the original. The counts are atomic and
  // the only-holder check acquires, so this is race-free under TSan, the
  // original never changes, and once every copy is gone the original is
  // the sole holder again and writes in place.
  ChunkedPeerSet original;
  for (std::uint32_t id = 0; id < 3 * ChunkedPeerSet::kChunkSpan; id += 4) {
    original.insert(PeerId(id));
  }
  const std::vector<PeerId> expected = contents(original);
  const std::uint64_t* first_buffer = original.chunks()[0].words().data();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&original, &mismatches, t] {
      for (std::uint32_t round = 0; round < 40; ++round) {
        ChunkedPeerSet copy = original;
        copy.insert(PeerId(1 + 4 * (t * 40 + round)));  // unshares chunk 0
        ChunkedPeerSet narrower = copy;
        narrower.keep_highest(narrower.size() - 10 - round);
        copy.insert_all(narrower);
        ChunkedPeerSet decoded;
        for (const ChunkedPeerSet::Chunk& chunk : original.chunks()) {
          if (!decoded.append_bitmap_chunk(chunk.key, chunk.words())) {
            mismatches.fetch_add(1);
          }
        }
        if (!(decoded == original) || original.contains(PeerId(1)) ||
            original.max_id() != 3 * ChunkedPeerSet::kChunkSpan - 4 ||
            copy.size() != original.size() + 1) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(contents(original), expected);
  EXPECT_TRUE(original.insert(PeerId(1)));
  EXPECT_EQ(original.chunks()[0].words().data(), first_buffer);
}

}  // namespace
}  // namespace updp2p::common

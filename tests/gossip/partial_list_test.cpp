#include "gossip/partial_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <unordered_map>

#include "common/chunked_peer_set.hpp"
#include "gossip/codec.hpp"

namespace updp2p::gossip {
namespace {

using common::ChunkedPeerSet;
using common::PeerId;
using common::StreamRng;

std::vector<PeerId> ids(std::initializer_list<std::uint32_t> values) {
  std::vector<PeerId> out;
  for (const auto v : values) out.emplace_back(v);
  return out;
}

ChunkedPeerSet set_of(std::initializer_list<std::uint32_t> values) {
  ChunkedPeerSet out;
  for (const auto v : values) out.insert(PeerId(v));
  return out;
}

TEST(PartialList, NoneModeYieldsEmptyList) {
  PartialListConfig config;
  config.mode = PartialListMode::kNone;
  StreamRng rng(1);
  EXPECT_TRUE(
      build_forward_list(config, set_of({1, 2}), ids({3}), PeerId(9), rng)
          .empty());
}

TEST(PartialList, UnboundedMergesReceivedSelfAndTargets) {
  PartialListConfig config;
  config.mode = PartialListMode::kUnbounded;
  StreamRng rng(1);
  const auto list =
      build_forward_list(config, set_of({1, 2}), ids({3, 4}), PeerId(9), rng);
  EXPECT_EQ(list, set_of({1, 2, 3, 4, 9}));
}

TEST(PartialList, Deduplicates) {
  PartialListConfig config;
  config.mode = PartialListMode::kUnbounded;
  StreamRng rng(1);
  const auto list =
      build_forward_list(config, set_of({1, 2, 9}), ids({2, 3}), PeerId(9), rng);
  EXPECT_EQ(list, set_of({1, 2, 3, 9}));
}

TEST(PartialList, DropTailKeepsLowestIds) {
  PartialListConfig config;
  config.mode = PartialListMode::kDropTail;
  config.max_entries = 3;
  StreamRng rng(1);
  const auto list = build_forward_list(config, set_of({1, 2, 3, 4}), ids({5}),
                                       PeerId(9), rng);
  EXPECT_EQ(list, set_of({1, 2, 3}));
}

TEST(PartialList, DropHeadKeepsHighestIds) {
  PartialListConfig config;
  config.mode = PartialListMode::kDropHead;
  config.max_entries = 3;
  StreamRng rng(1);
  const auto list = build_forward_list(config, set_of({1, 2, 3, 4}), ids({5}),
                                       PeerId(9), rng);
  // merged = {1 2 3 4 5 9} -> keep the 3 highest ids.
  EXPECT_EQ(list, set_of({4, 5, 9}));
}

TEST(PartialList, DropRandomKeepsCapSizedSubset) {
  PartialListConfig config;
  config.mode = PartialListMode::kDropRandom;
  config.max_entries = 4;
  StreamRng rng(2);
  const auto received = set_of({1, 2, 3, 4, 5, 6, 7, 8});
  const auto list =
      build_forward_list(config, received, ids({10}), PeerId(9), rng);
  EXPECT_EQ(list.size(), 4u);
  // Every survivor came from the merged input (a set cannot hold dupes).
  auto merged = received;
  merged.insert(PeerId(9));
  merged.insert(PeerId(10));
  list.for_each(
      [&](PeerId peer) { EXPECT_TRUE(merged.contains(peer)) << peer.value(); });
}

TEST(PartialList, CapNotExceededNotTruncatedBelow) {
  PartialListConfig config;
  config.mode = PartialListMode::kDropRandom;
  config.max_entries = 10;
  StreamRng rng(3);
  const auto list =
      build_forward_list(config, set_of({1, 2}), ids({3}), PeerId(9), rng);
  EXPECT_EQ(list.size(), 4u);  // under cap: everything kept
}

TEST(PartialList, BuildIntoReusesOutputSet) {
  PartialListConfig config;
  config.mode = PartialListMode::kUnbounded;
  StreamRng rng(1);
  ChunkedPeerSet out;
  std::vector<PeerId> targets = ids({3});
  build_forward_list_into(config, set_of({1, 2}), targets, PeerId::invalid(),
                          PeerId(9), rng, out);
  EXPECT_EQ(out, set_of({1, 2, 3, 9}));
  // Re-use: the previous contents must not leak into the next build.
  targets = ids({8});
  build_forward_list_into(config, set_of({7}), targets, PeerId::invalid(),
                          PeerId(9), rng, out);
  EXPECT_EQ(out, set_of({7, 8, 9}));
}

TEST(PartialList, DropRandomIsUnbiasedish) {
  PartialListConfig config;
  config.mode = PartialListMode::kDropRandom;
  config.max_entries = 2;
  StreamRng rng(4);
  std::unordered_map<PeerId, int> kept;
  constexpr int kTrials = 6'000;
  const auto received = set_of({1, 2, 3});
  for (int i = 0; i < kTrials; ++i) {
    build_forward_list(config, received, ids({10}), PeerId(9), rng)
        .for_each([&](PeerId peer) { ++kept[peer]; });
  }
  // 5 candidates (1,2,3,target=10,self=9), 2 kept -> each expected
  // 2·kTrials/5.
  EXPECT_EQ(kept.size(), 5u);
  for (const auto& [peer, count] : kept) {
    EXPECT_NEAR(static_cast<double>(count) / kTrials, 0.4, 0.05)
        << "peer " << peer.value();
  }
}

// The forward step as it ran before the one-sweep union: R_p \ R_f by one
// probe per target, then the list by a sorted insert per target and a
// union with the received list. The sweep must match it exactly.
void reference_forward_step(const PartialListConfig& config,
                            const ChunkedPeerSet& received,
                            std::vector<PeerId>& targets, PeerId from,
                            PeerId self, StreamRng& rng,
                            ChunkedPeerSet& out) {
  std::erase_if(targets, [&received, from](PeerId peer) {
    return peer == from || received.contains(peer);
  });
  out.clear();
  if (targets.empty() || config.mode == PartialListMode::kNone) return;
  out.insert(self);
  for (const PeerId peer : targets) out.insert(peer);
  out.insert_all(received);
  if (config.mode == PartialListMode::kUnbounded ||
      out.size() <= config.max_entries) {
    return;
  }
  switch (config.mode) {
    case PartialListMode::kDropHead:
      out.keep_highest(config.max_entries);
      break;
    case PartialListMode::kDropTail:
      out.keep_lowest(config.max_entries);
      break;
    case PartialListMode::kDropRandom:
      out.keep_random(rng, config.max_entries);
      break;
    case PartialListMode::kNone:
    case PartialListMode::kUnbounded:
      break;
  }
}

TEST(PartialList, ForwardStepMatchesFilterThenInsertReference) {
  constexpr std::array<std::uint32_t, 3> kUniverses{64, 10'000, 200'000};
  constexpr std::array<PartialListMode, 5> kModes{
      PartialListMode::kNone, PartialListMode::kUnbounded,
      PartialListMode::kDropRandom, PartialListMode::kDropHead,
      PartialListMode::kDropTail};
  StreamRng draw(77);
  ChunkedPeerSet swept;  // reused: parked chunk buffers are exercised too
  for (int trial = 0; trial < 240; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const std::uint32_t universe = kUniverses[trial % kUniverses.size()];
    // R_f: empty, sparse arrays, or dense enough for bitmap chunks.
    const double density = std::array<double, 4>{
        0.0, 0.004, 0.05, 0.8}[draw.uniform_below(4)];
    ChunkedPeerSet received;
    for (std::uint32_t id = 0; id < universe; ++id) {
      if (density > 0.0 && draw.bernoulli(density)) received.insert(PeerId(id));
    }
    const PeerId self(static_cast<std::uint32_t>(draw.uniform_below(universe)));
    if (draw.bernoulli(0.5)) {
      received.insert(self);
    }
    // 0-120 distinct targets, never self, sometimes including `from`.
    const PeerId from(static_cast<std::uint32_t>(draw.uniform_below(universe)));
    std::vector<PeerId> targets;
    const auto wanted = std::min<std::uint64_t>(draw.uniform_below(121),
                                                universe - 1);
    for (const std::uint32_t id : draw.sample_without_replacement(
             universe, static_cast<std::uint32_t>(wanted + 1))) {
      if (PeerId(id) != self && targets.size() < wanted) {
        targets.emplace_back(id);
      }
    }
    if (from != self && draw.bernoulli(0.3) &&
        std::find(targets.begin(), targets.end(), from) == targets.end()) {
      targets.insert(targets.begin() + static_cast<std::ptrdiff_t>(
                                           draw.uniform_below(
                                               targets.size() + 1)),
                     from);
    }

    PartialListConfig config;
    config.mode = kModes[draw.uniform_below(kModes.size())];
    ChunkedPeerSet all = received;
    for (const PeerId peer : targets) all.insert(peer);
    all.insert(self);
    config.max_entries =
        draw.bernoulli(0.5) && all.size() > 1
            ? 1 + draw.uniform_below(all.size() - 1)      // cap binds
            : all.size() + draw.uniform_below(50);        // cap above

    std::vector<PeerId> expected_targets = targets;
    ChunkedPeerSet expected;
    StreamRng expected_rng(1000 + static_cast<std::uint64_t>(trial));
    reference_forward_step(config, received, expected_targets, from, self,
                           expected_rng, expected);
    StreamRng rng(1000 + static_cast<std::uint64_t>(trial));
    build_forward_list_into(config, received, targets, from, self, rng,
                            swept);

    EXPECT_EQ(targets, expected_targets);
    EXPECT_EQ(swept, expected);
    WireBytes swept_bytes;
    WireBytes expected_bytes;
    encode_peer_set(swept_bytes, swept);
    encode_peer_set(expected_bytes, expected);
    EXPECT_EQ(swept_bytes, expected_bytes);
    EXPECT_EQ(rng(), expected_rng());  // the same draws were taken
    EXPECT_EQ(rng(), expected_rng());
  }
}

TEST(PartialListMode, ToString) {
  EXPECT_STREQ(to_string(PartialListMode::kNone), "none");
  EXPECT_STREQ(to_string(PartialListMode::kDropRandom), "drop-random");
}

}  // namespace
}  // namespace updp2p::gossip

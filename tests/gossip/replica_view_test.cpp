#include "gossip/replica_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <unordered_set>
#include <vector>

namespace updp2p::gossip {
namespace {

using common::PeerId;
using common::StreamRng;

TEST(ReplicaView, AddAndContains) {
  ReplicaView view{PeerId(0)};
  EXPECT_TRUE(view.empty());
  EXPECT_TRUE(view.add(PeerId(1)));
  EXPECT_FALSE(view.add(PeerId(1)));  // duplicate
  EXPECT_TRUE(view.contains(PeerId(1)));
  EXPECT_EQ(view.size(), 1u);
}

TEST(ReplicaView, NeverStoresSelf) {
  ReplicaView view{PeerId(0)};
  EXPECT_FALSE(view.add(PeerId(0)));
  EXPECT_FALSE(view.contains(PeerId(0)));
}

TEST(ReplicaView, MergeCountsNewMembers) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  const std::array<PeerId, 4> incoming{PeerId(0), PeerId(1), PeerId(2),
                                       PeerId(3)};
  EXPECT_EQ(view.merge(incoming), 2u);  // 2 and 3 are new; 0 is self
  EXPECT_EQ(view.size(), 3u);
}

TEST(ReplicaView, SampleReturnsDistinctMembers) {
  ReplicaView view{PeerId(0)};
  for (std::uint32_t i = 1; i <= 50; ++i) view.add(PeerId(i));
  StreamRng rng(1);
  std::vector<PeerId> sample;
  WorkArena scratch;
  view.sample_into(rng, 10, sample, scratch);
  EXPECT_EQ(sample.size(), 10u);
  std::unordered_set<PeerId> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const PeerId peer : sample) EXPECT_TRUE(view.contains(peer));
}

TEST(ReplicaView, SampleReturnsFewerWhenViewSmall) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  view.add(PeerId(2));
  StreamRng rng(3);
  std::vector<PeerId> sample;
  WorkArena scratch;
  view.sample_into(rng, 10, sample, scratch);
  EXPECT_EQ(sample.size(), 2u);
}

TEST(ReplicaView, SampleEmptyCases) {
  ReplicaView view{PeerId(0)};
  StreamRng rng(4);
  std::vector<PeerId> sample{PeerId(7)};  // replaced, not appended to
  WorkArena scratch;
  view.sample_into(rng, 5, sample, scratch);
  EXPECT_TRUE(sample.empty());
  view.add(PeerId(1));
  sample.push_back(PeerId(7));
  view.sample_into(rng, 0, sample, scratch);
  EXPECT_TRUE(sample.empty());
}

TEST(ReplicaView, PresumedOfflineSkippedUntilExpiry) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  view.add(PeerId(2));
  view.mark_presumed_offline(PeerId(1), /*until_round=*/10);
  // Queries advance monotonically, as rounds do in a run: expired deadlines
  // are purged lazily as `now` moves forward.
  EXPECT_TRUE(view.is_presumed_offline(PeerId(1), 5));
  EXPECT_EQ(view.presumed_offline_count(5), 1u);

  StreamRng rng(5);
  std::vector<PeerId> sample;
  WorkArena scratch;
  for (int trial = 0; trial < 30; ++trial) {
    view.sample_into(rng, 2, sample, scratch, /*now=*/5);
    ASSERT_EQ(sample.size(), 1u);
    EXPECT_EQ(sample[0], PeerId(2));
  }

  EXPECT_FALSE(view.is_presumed_offline(PeerId(1), 10));
  EXPECT_EQ(view.presumed_offline_count(10), 0u);
  // After expiry peer 1 is eligible again.
  bool seen1 = false;
  for (int trial = 0; trial < 30 && !seen1; ++trial) {
    view.sample_into(rng, 2, sample, scratch, /*now=*/10);
    for (const PeerId peer : sample) seen1 |= peer == PeerId(1);
  }
  EXPECT_TRUE(seen1);
}

TEST(ReplicaView, OfflineQueriesAreExactForRecordedMarks) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  view.mark_presumed_offline(PeerId(1), /*until_round=*/10);
  // The predicate is a pure read: a mark still recorded answers any `now`
  // exactly, including queries that rewind past its expiry.
  EXPECT_FALSE(view.is_presumed_offline(PeerId(1), 14));
  EXPECT_TRUE(view.is_presumed_offline(PeerId(1), 5));
  // Counting purges expired marks; a purged mark's expiry is forgotten, so
  // a rewound query then reads the peer as online (drivers are monotonic).
  EXPECT_EQ(view.presumed_offline_count(14), 0u);
  EXPECT_FALSE(view.is_presumed_offline(PeerId(1), 5));
}

TEST(ReplicaView, ClearPresumedOffline) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  view.mark_presumed_offline(PeerId(1), 100);
  view.clear_presumed_offline(PeerId(1));
  EXPECT_FALSE(view.is_presumed_offline(PeerId(1), 5));
}

TEST(ReplicaView, MarkPresumedOfflineKeepsLatestDeadline) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  view.mark_presumed_offline(PeerId(1), 10);
  view.mark_presumed_offline(PeerId(1), 5);  // earlier mark must not shorten
  EXPECT_TRUE(view.is_presumed_offline(PeerId(1), 7));
}

TEST(ReplicaView, PreferredPeersAreOversampled) {
  ReplicaView view{PeerId(0)};
  for (std::uint32_t i = 1; i <= 20; ++i) view.add(PeerId(i));
  view.mark_preferred(PeerId(1));
  EXPECT_TRUE(view.is_preferred(PeerId(1)));

  StreamRng rng(6);
  int preferred_hits = 0;
  int other_hits = 0;
  constexpr int kTrials = 4'000;
  std::vector<PeerId> sample;
  WorkArena scratch;
  for (int trial = 0; trial < kTrials; ++trial) {
    view.sample_into(rng, 1, sample, scratch);
    for (const PeerId peer : sample) {
      if (peer == PeerId(1)) {
        ++preferred_hits;
      } else if (peer == PeerId(2)) {
        ++other_hits;
      }
    }
  }
  // Peer 1 appears twice in the pool: roughly double the frequency.
  EXPECT_GT(preferred_hits, other_hits * 3 / 2);
}

TEST(ReplicaView, PreferredDoesNotDuplicateInOneSample) {
  ReplicaView view{PeerId(0)};
  view.add(PeerId(1));
  view.add(PeerId(2));
  view.mark_preferred(PeerId(1));
  StreamRng rng(7);
  std::vector<PeerId> sample;
  WorkArena scratch;
  for (int trial = 0; trial < 50; ++trial) {
    view.sample_into(rng, 2, sample, scratch);
    std::unordered_set<PeerId> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), sample.size());
  }
}

TEST(ReplicaView, BootstrapFromOneSetSharesItsBitmap) {
  // Views bootstrapped from one full-membership set hold its bitmap buffer
  // instead of private copies; a write unshares the writer only.
  common::ChunkedPeerSet everyone;
  for (std::uint32_t i = 0; i < 5'000; ++i) everyone.insert(PeerId(i));
  ASSERT_TRUE(everyone.chunks().front().is_bitmap());
  const std::uint64_t* shared = everyone.chunks().front().words().data();
  ReplicaView a{PeerId(3)};
  ReplicaView b{PeerId(4'000)};
  EXPECT_EQ(a.merge(everyone), 4'999u);
  EXPECT_EQ(b.merge(everyone), 4'999u);
  EXPECT_EQ(a.membership().chunks().front().words().data(), shared);
  EXPECT_EQ(b.membership().chunks().front().words().data(), shared);

  EXPECT_TRUE(a.add(PeerId(7'000)));
  EXPECT_NE(a.membership().chunks().front().words().data(), shared);
  EXPECT_EQ(b.membership().chunks().front().words().data(), shared);
  EXPECT_TRUE(a.contains(PeerId(7'000)));
  EXPECT_FALSE(b.contains(PeerId(7'000)));
  EXPECT_FALSE(everyone.contains(PeerId(7'000)));
  EXPECT_EQ(b.size(), 4'999u);
}

/// The presumed-offline bookkeeping as a whole-map erase_if purge — the
/// reference the view's expiry heap must reproduce answer for answer.
struct EraseIfOfflineModel {
  std::map<std::uint32_t, common::Round> until;
  common::Round purged_at = 0;

  void mark(std::uint32_t peer, common::Round round) {
    common::Round& slot = until[peer];
    slot = std::max(slot, round);
  }
  void purge(common::Round now) {
    if (now <= purged_at || until.empty()) return;
    purged_at = now;
    std::erase_if(until, [now](const auto& entry) {
      return entry.second <= now;
    });
  }
  [[nodiscard]] bool is_offline(std::uint32_t peer, common::Round now) const {
    const auto it = until.find(peer);
    return it != until.end() && now < it->second;
  }
  std::size_t count(common::Round now) {
    purge(now);
    if (purged_at >= now) return until.size();
    return static_cast<std::size_t>(std::count_if(
        until.begin(), until.end(),
        [now](const auto& entry) { return now < entry.second; }));
  }
};

TEST(ReplicaView, ExpiryHeapMatchesWholeMapPurge) {
  // Random mark/raise/clear/query/purge sequences, rewound queries
  // included: after every step each peer's mark reads the same at the
  // current round and at an earlier one, counts agree, and a sample asked
  // for every member returns exactly the members the model reads online.
  constexpr std::uint32_t kPeers = 24;
  ReplicaView view{PeerId(0)};
  for (std::uint32_t i = 1; i <= kPeers; ++i) view.add(PeerId(i));
  EraseIfOfflineModel model;
  StreamRng rng(4242);
  StreamRng sampler(4243);
  common::Round now = 8;
  std::vector<PeerId> sample;
  WorkArena scratch;
  for (int step = 0; step < 20'000; ++step) {
    const auto peer =
        static_cast<std::uint32_t>(1 + rng.uniform_below(kPeers));
    // Mostly the current round, sometimes a rewound one.
    const common::Round at =
        now - (rng.bernoulli(0.2)
                   ? static_cast<common::Round>(rng.uniform_below(6))
                   : 0);
    switch (rng.uniform_below(6)) {
      case 0:
      case 1: {  // create, raise, or fail to shorten a mark
        const auto until =
            now - 4 + static_cast<common::Round>(rng.uniform_below(16));
        view.mark_presumed_offline(PeerId(peer), until);
        model.mark(peer, until);
        break;
      }
      case 2:
        view.clear_presumed_offline(PeerId(peer));
        model.until.erase(peer);
        break;
      case 3:
        ASSERT_EQ(view.presumed_offline_count(at), model.count(at));
        break;
      case 4: {
        view.sample_into(sampler, kPeers, sample, scratch, at);
        model.purge(at);
        std::vector<std::uint32_t> got;
        for (const PeerId p : sample) got.push_back(p.value());
        std::sort(got.begin(), got.end());
        std::vector<std::uint32_t> online;
        for (std::uint32_t p = 1; p <= kPeers; ++p) {
          if (!model.is_offline(p, at)) online.push_back(p);
        }
        ASSERT_EQ(got, online);
        break;
      }
      default:
        now += static_cast<common::Round>(rng.uniform_below(3));
        break;
    }
    for (std::uint32_t p = 1; p <= kPeers; ++p) {
      ASSERT_EQ(view.is_presumed_offline(PeerId(p), now),
                model.is_offline(p, now))
          << "step " << step << " peer " << p;
      ASSERT_EQ(view.is_presumed_offline(PeerId(p), now - 3),
                model.is_offline(p, now - 3))
          << "step " << step << " peer " << p;
    }
  }
}

}  // namespace
}  // namespace updp2p::gossip

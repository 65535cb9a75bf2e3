#include "version/store.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace updp2p::version {
namespace {

using common::PeerId;
using common::StreamRng;

class StoreTest : public ::testing::Test {
 protected:
  VersionedStore store_;
  LocalWriter alice_{PeerId(1), StreamRng(11)};
  LocalWriter bob_{PeerId(2), StreamRng(22)};
};

TEST_F(StoreTest, LocalWriteIsReadable) {
  alice_.write(store_, "key", "v1", 0.0);
  const auto value = store_.read("key");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->payload, "v1");
  EXPECT_EQ(store_.key_count(), 1u);
  EXPECT_EQ(store_.version_count(), 1u);
}

TEST_F(StoreTest, UnknownKeyReadsNothing) {
  EXPECT_FALSE(store_.read("missing").has_value());
  EXPECT_TRUE(store_.versions("missing").empty());
  EXPECT_FALSE(store_.is_deleted("missing"));
}

TEST_F(StoreTest, SequentialWritesReplace) {
  alice_.write(store_, "key", "v1", 0.0);
  alice_.write(store_, "key", "v2", 1.0);
  EXPECT_EQ(store_.version_count(), 1u);
  EXPECT_EQ(store_.read("key")->payload, "v2");
}

TEST_F(StoreTest, ApplyDuplicateDetected) {
  const auto value = alice_.write(store_, "key", "v1", 0.0);
  EXPECT_EQ(store_.apply(value), ApplyOutcome::kDuplicate);
}

TEST_F(StoreTest, ApplyObsoleteRejected) {
  const auto v1 = alice_.write(store_, "key", "v1", 0.0);
  alice_.write(store_, "key", "v2", 1.0);
  VersionedStore fresh;
  fresh.apply(store_.read("key").value());
  EXPECT_EQ(fresh.apply(v1), ApplyOutcome::kObsolete);
  EXPECT_EQ(fresh.version_count(), 1u);
}

TEST_F(StoreTest, ConcurrentWritesCoexist) {
  // Alice and Bob write independently (no store sharing beforehand).
  VersionedStore bob_store;
  const auto from_alice = alice_.write(store_, "key", "alice", 0.0);
  const auto from_bob = bob_.write(bob_store, "key", "bob", 0.0);
  EXPECT_EQ(store_.apply(from_bob), ApplyOutcome::kCoexisting);
  EXPECT_EQ(store_.versions("key").size(), 2u);
  // Both replicas converge to the same deterministic winner (§4.4).
  EXPECT_EQ(bob_store.apply(from_alice), ApplyOutcome::kCoexisting);
  EXPECT_EQ(store_.read("key")->id, bob_store.read("key")->id);
}

TEST_F(StoreTest, DominatingWriteCollapsesConcurrents) {
  VersionedStore bob_store;
  alice_.write(store_, "key", "alice", 0.0);
  const auto from_bob = bob_.write(bob_store, "key", "bob", 0.0);
  store_.apply(from_bob);
  ASSERT_EQ(store_.versions("key").size(), 2u);
  // Alice writes again having seen both: the new version dominates both.
  alice_.write(store_, "key", "merged", 1.0);
  EXPECT_EQ(store_.versions("key").size(), 1u);
  EXPECT_EQ(store_.read("key")->payload, "merged");
}

TEST_F(StoreTest, TombstoneHidesValue) {
  alice_.write(store_, "key", "v1", 0.0);
  alice_.erase(store_, "key", 1.0);
  EXPECT_FALSE(store_.read("key").has_value());
  EXPECT_TRUE(store_.is_deleted("key"));
  EXPECT_EQ(store_.versions("key").size(), 1u);
  EXPECT_TRUE(store_.versions("key").front().tombstone);
}

TEST_F(StoreTest, WriteAfterDeleteRevives) {
  alice_.write(store_, "key", "v1", 0.0);
  alice_.erase(store_, "key", 1.0);
  alice_.write(store_, "key", "v2", 2.0);
  EXPECT_FALSE(store_.is_deleted("key"));
  EXPECT_EQ(store_.read("key")->payload, "v2");
}

TEST_F(StoreTest, TombstoneGcAfterRetention) {
  alice_.write(store_, "key", "v1", 0.0);
  alice_.erase(store_, "key", 10.0);
  EXPECT_EQ(store_.gc_tombstones(15.0, /*retention=*/100.0), 0u);
  EXPECT_EQ(store_.key_count(), 1u);
  EXPECT_EQ(store_.gc_tombstones(200.0, /*retention=*/100.0), 1u);
  EXPECT_EQ(store_.key_count(), 0u);
}

TEST_F(StoreTest, GcKeepsLiveVersions) {
  alice_.write(store_, "kept", "v1", 0.0);
  EXPECT_EQ(store_.gc_tombstones(1e9, 1.0), 0u);
  EXPECT_TRUE(store_.read("kept").has_value());
}

TEST_F(StoreTest, SummaryCoversEveryWrite) {
  const auto v1 = alice_.write(store_, "a", "1", 0.0);
  const auto v2 = bob_.write(store_, "b", "2", 0.0);
  EXPECT_TRUE(v1.history.covered_by(store_.summary()));
  EXPECT_TRUE(v2.history.covered_by(store_.summary()));
}

TEST_F(StoreTest, MissingGivenEmptySummaryReturnsEverything) {
  alice_.write(store_, "a", "1", 0.0);
  alice_.write(store_, "b", "2", 0.0);
  EXPECT_EQ(store_.missing_given(VersionVector{}).size(), 2u);
}

TEST_F(StoreTest, MissingGivenOwnSummaryReturnsNothing) {
  alice_.write(store_, "a", "1", 0.0);
  alice_.write(store_, "b", "2", 0.0);
  EXPECT_TRUE(store_.missing_given(store_.summary()).empty());
}

TEST_F(StoreTest, DeltaTransferMakesStoresEquivalent) {
  alice_.write(store_, "a", "1", 0.0);
  alice_.write(store_, "b", "2", 0.0);
  VersionedStore other;
  bob_.write(other, "c", "3", 0.0);

  // Bidirectional anti-entropy exchange.
  for (auto& value : store_.missing_given(other.summary())) {
    other.apply(std::move(value));
  }
  for (auto& value : other.missing_given(store_.summary())) {
    store_.apply(std::move(value));
  }
  EXPECT_EQ(store_.summary(), other.summary());
  EXPECT_EQ(store_.key_count(), 3u);
  EXPECT_EQ(other.key_count(), 3u);
  EXPECT_EQ(store_.read("c")->payload, "3");
  EXPECT_EQ(other.read("a")->payload, "1");
}

TEST_F(StoreTest, StoredIdsCoverEveryVersion) {
  alice_.write(store_, "a", "1", 0.0);
  VersionedStore bob_store;
  const auto from_bob = bob_.write(bob_store, "a", "2", 0.0);
  store_.apply(from_bob);  // concurrent pair stored
  const auto ids = store_.stored_ids();
  EXPECT_EQ(ids.size(), 2u);
}

TEST_F(StoreTest, MissingForShipsExactlyWhatRemoteLacks) {
  const auto v1 = alice_.write(store_, "a", "1", 0.0);
  const auto v2 = alice_.write(store_, "b", "2", 0.0);
  const std::vector<VersionId> remote_have{v1.id};
  const auto delta = store_.missing_for(remote_have);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta.front().id, v2.id);
  // Remote with everything gets nothing.
  EXPECT_TRUE(store_.missing_for(store_.stored_ids()).empty());
}

TEST_F(StoreTest, CoveredButUnstoredSiblingStillConverges) {
  // The blind spot of summary-only sync, found by fuzzing:
  //   A stores X with history {1:2, 2:1};
  //   B stores Y {1:1, 2:1} and Z {1:2} — summary also {1:2, 2:1}.
  // Equal summaries, different stores: summary-based deltas ship nothing,
  // id-based deltas reconcile.
  VersionedStore a, b;
  auto put = [](VersionedStore& store, const char* payload,
                std::initializer_list<std::pair<int, int>> history,
                std::uint64_t seed) {
    VersionedValue value;
    value.key = "k";
    value.payload = payload;
    for (const auto& [peer, counter] : history) {
      value.history.observe(common::PeerId(static_cast<std::uint32_t>(peer)),
                            static_cast<std::uint64_t>(counter));
    }
    VersionIdFactory factory(common::PeerId(9), common::StreamRng(seed));
    value.id = factory.mint(0.0);
    store.apply(value);
    return value;
  };
  put(a, "X", {{1, 2}, {2, 1}}, 1);
  put(b, "Y", {{1, 1}, {2, 1}}, 2);
  put(b, "Z", {{1, 2}}, 3);
  ASSERT_EQ(a.summary(), b.summary());
  // Summary-only sync is blind here.
  EXPECT_TRUE(a.missing_given(b.summary()).empty());
  EXPECT_TRUE(b.missing_given(a.summary()).empty());
  // Id-based sync reconciles both directions.
  for (auto& value : a.missing_for(b.stored_ids())) b.apply(std::move(value));
  for (auto& value : b.missing_for(a.stored_ids())) a.apply(std::move(value));
  EXPECT_EQ(a.read("k")->id, b.read("k")->id);
  EXPECT_EQ(a.versions("k").size(), b.versions("k").size());
}

TEST_F(StoreTest, ContentDigestTracksStoreState) {
  const common::Digest128 empty = store_.content_digest();
  const auto v1 = alice_.write(store_, "a", "1", 0.0);
  const auto after_v1 = store_.content_digest();
  EXPECT_NE(after_v1, empty);
  // Superseding v1 removes it and adds v2: digest changes again.
  alice_.write(store_, "a", "2", 1.0);
  EXPECT_NE(store_.content_digest(), after_v1);
  // Re-applying an obsolete version leaves the digest untouched.
  const auto unchanged = store_.content_digest();
  store_.apply(v1);
  EXPECT_EQ(store_.content_digest(), unchanged);
}

TEST_F(StoreTest, EqualContentsMeanEqualDigests) {
  VersionedStore other;
  const auto v1 = alice_.write(store_, "a", "1", 0.0);
  const auto v2 = bob_.write(store_, "b", "2", 0.0);
  // Apply the same versions in the opposite order: same digest.
  other.apply(v2);
  other.apply(v1);
  EXPECT_EQ(store_.content_digest(), other.content_digest());
}

TEST_F(StoreTest, GcUpdatesContentDigest) {
  alice_.write(store_, "a", "1", 0.0);
  const auto before_delete = store_.content_digest();
  alice_.erase(store_, "a", 1.0);
  (void)store_.gc_tombstones(1'000.0, 10.0);
  // Tombstone collected: the store is empty again but NOT equal to the
  // pre-delete state (v1 is gone too).
  EXPECT_NE(store_.content_digest(), before_delete);
  EXPECT_EQ(store_.content_digest(), common::Digest128{});
}

TEST_F(StoreTest, TombstoneResurrectionSemantics) {
  // The classic death-certificate trade-off (Demers [9], paper §3): once a
  // tombstone is garbage-collected, a stale replica can resurrect the old
  // value through reconciliation. Retention must therefore exceed the
  // maximum disconnection time — this test documents both sides.
  VersionedStore stale;
  const auto old_value = alice_.write(store_, "key", "v1", 0.0);
  stale.apply(old_value);  // the stale replica holds only v1

  alice_.erase(store_, "key", 10.0);

  // (a) Before GC, the tombstone dominates: reconciliation kills v1 at the
  // stale replica instead of resurrecting it here.
  for (auto& value : store_.missing_for(stale.stored_ids())) {
    stale.apply(std::move(value));
  }
  EXPECT_TRUE(stale.is_deleted("key"));

  // (b) After GC on a *fresh* store, the old version applies as brand new
  // — resurrection, exactly what adequate retention prevents.
  VersionedStore gced;
  gced.apply(store_.versions("key").front());     // tombstone only
  EXPECT_EQ(gced.gc_tombstones(1'000.0, 100.0), 1u);
  EXPECT_EQ(gced.apply(old_value), ApplyOutcome::kApplied);
  EXPECT_TRUE(gced.read("key").has_value());      // resurrected
}

TEST_F(StoreTest, KeysListsAll) {
  alice_.write(store_, "x", "1", 0.0);
  alice_.write(store_, "y", "2", 0.0);
  const auto keys = store_.keys();
  EXPECT_EQ(keys.size(), 2u);
}

TEST_F(StoreTest, ApplyOutcomeToString) {
  EXPECT_STREQ(to_string(ApplyOutcome::kApplied), "applied");
  EXPECT_STREQ(to_string(ApplyOutcome::kCoexisting), "coexisting");
}

// Property: random gossip of writes among stores converges when all deltas
// are exchanged (eventual consistency of the store layer alone).
class StoreConvergence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreConvergence, AllPairsReconciliationConverges) {
  StreamRng rng(GetParam());
  constexpr int kStores = 5;
  std::vector<VersionedStore> stores(kStores);
  std::vector<LocalWriter> writers;
  for (int i = 0; i < kStores; ++i) {
    writers.emplace_back(PeerId(static_cast<std::uint32_t>(i)),
                         rng.split_for(static_cast<std::uint64_t>(i)));
  }
  // Random concurrent writes.
  for (int step = 0; step < 40; ++step) {
    const auto who = rng.pick_index(kStores);
    const auto key = "k" + std::to_string(rng.uniform_below(4));
    writers[who].write(stores[who], key, "p" + std::to_string(step),
                       static_cast<double>(step));
  }
  // Repeated full mesh reconciliation (2 sweeps guarantee convergence).
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int i = 0; i < kStores; ++i) {
      for (int j = 0; j < kStores; ++j) {
        if (i == j) continue;
        for (auto& value : stores[j].missing_for(stores[i].stored_ids())) {
          stores[i].apply(std::move(value));
        }
      }
    }
  }
  for (int i = 1; i < kStores; ++i) {
    EXPECT_EQ(stores[0].summary(), stores[i].summary());
    for (const auto& key : stores[0].keys()) {
      ASSERT_TRUE(stores[i].read(key).has_value() ||
                  stores[i].is_deleted(key));
      EXPECT_EQ(stores[0].read(key)->id, stores[i].read(key)->id)
          << "divergent winner for " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreConvergence,
                         ::testing::Values(1, 17, 23, 99, 2026));

}  // namespace
}  // namespace updp2p::version

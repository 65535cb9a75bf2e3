// ReplicaStore end-to-end: a "lived" node's state vs a node rebuilt from
// snapshot + WAL replay must be BIT-IDENTICAL (content digest, summary
// vector, version count, membership) — the core durability contract.
#include "store/replica_store.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "gossip/codec.hpp"
#include "gossip/node.hpp"

namespace updp2p::store {
namespace {

using common::PeerId;

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/snapshot.bin").c_str());
  return dir;
}

gossip::GossipConfig test_config() {
  gossip::GossipConfig config;
  config.estimated_total_replicas = 50;
  config.fanout_fraction = 0.1;
  config.forward_probability = analysis::pf_constant(1.0);
  config.partial_list.mode = gossip::PartialListMode::kUnbounded;
  config.pull.contacts_per_attempt = 2;
  config.pull.no_update_timeout = 10;
  return config;
}

gossip::ReplicaNode make_node(std::uint32_t id) {
  gossip::ReplicaNode node(PeerId(id), test_config(),
                           common::StreamRng(1000 + id));
  std::vector<PeerId> view;
  for (std::uint32_t i = 0; i < 50; ++i) {
    if (i != id) view.emplace_back(i);
  }
  node.bootstrap(view);
  return node;
}

/// Encodes a push frame for `value` as peer `from` would send it.
gossip::WireBytes push_frame(version::VersionedValue value,
                             common::Round round) {
  gossip::GossipPayload payload = gossip::PushMessage{
      gossip::SharedValue(std::move(value)), gossip::SharedPeerList{}, round};
  gossip::WireBytes bytes;
  gossip::encode_into(payload, bytes);
  return bytes;
}

version::VersionedValue make_value(std::uint64_t seed) {
  version::VersionedValue value;
  value.key = "key-" + std::to_string(seed % 5);
  value.payload = "payload-" + std::to_string(seed);
  version::VersionIdFactory factory(
      PeerId(static_cast<std::uint32_t>(1 + seed % 30)),
      common::StreamRng(seed * 7 + 1));
  value.id = factory.mint(static_cast<double>(seed));
  value.history.observe(PeerId(static_cast<std::uint32_t>(1 + seed % 30)),
                        1 + seed);
  value.written_at = static_cast<double>(seed);
  return value;
}

/// Asserts the durability contract: `recovered` stands exactly where
/// `lived` stands.
void expect_bit_identical(const gossip::ReplicaNode& lived,
                          const gossip::ReplicaNode& recovered) {
  EXPECT_EQ(recovered.store().content_digest(), lived.store().content_digest());
  EXPECT_EQ(recovered.store().summary(), lived.store().summary());
  EXPECT_EQ(recovered.store().version_count(), lived.store().version_count());
  EXPECT_EQ(recovered.view().membership(), lived.view().membership());
}

/// Drives `count` distinct pushes into `node`, appending each first
/// receipt to `store` exactly the way PeerRuntime does (append before the
/// ack leaves).
void drive_pushes(gossip::ReplicaNode& node, ReplicaStore& store,
                  std::size_t count) {
  std::vector<gossip::OutboundMessage> out;
  for (std::size_t i = 0; i < count; ++i) {
    const auto frame = push_frame(make_value(i + 1),
                                  static_cast<common::Round>(i));
    const PeerId from(static_cast<std::uint32_t>(1 + i % 30));
    out.clear();
    ASSERT_TRUE(node.handle_frame(from, frame,
                                  static_cast<common::Round>(i), out));
    ASSERT_TRUE(store
                    .append_frame(from, static_cast<common::Round>(i), frame)
                    .has_value());
  }
}

gossip::ReplicaNode recover_node(std::uint32_t id, const StoreConfig& config) {
  auto node = make_node(id);
  std::string error;
  auto store = ReplicaStore::open(config, &error);
  EXPECT_TRUE(store.has_value()) << error;
  SnapshotData snapshot = store->take_snapshot_state();
  node.import_durable_state(snapshot.membership, std::move(snapshot.values));
  std::vector<gossip::OutboundMessage> discard;
  store->replay([&](const ReplicaStore::RecoveredFrame& record) {
    discard.clear();
    EXPECT_TRUE(
        node.handle_frame(record.from, record.frame, record.round, discard));
  });
  return node;
}

TEST(ReplicaStoreTest, ReplayFromLogAloneIsBitIdentical) {
  StoreConfig config;
  config.data_dir = fresh_dir("rs_log_only");
  config.snapshot_every_records = 0;  // log only, no compaction

  auto lived = make_node(0);
  {
    std::string error;
    auto store = ReplicaStore::open(config, &error);
    ASSERT_TRUE(store.has_value()) << error;
    drive_pushes(lived, *store, 12);
    EXPECT_EQ(store->stats().records_appended, 12u);
  }  // "crash": the store handle goes away, nothing was snapshotted

  const auto recovered = recover_node(0, config);
  expect_bit_identical(lived, recovered);
}

TEST(ReplicaStoreTest, SnapshotPlusTailIsBitIdentical) {
  StoreConfig config;
  config.data_dir = fresh_dir("rs_snap_tail");
  config.snapshot_every_records = 0;

  auto lived = make_node(0);
  {
    std::string error;
    auto store = ReplicaStore::open(config, &error);
    ASSERT_TRUE(store.has_value()) << error;
    drive_pushes(lived, *store, 8);
    // Compact: snapshot the node's current state, truncating the log…
    ASSERT_TRUE(store->write_snapshot(lived.view().membership(),
                                      lived.store().all_versions(), &error))
        << error;
    EXPECT_EQ(store->stats().snapshots_written, 1u);
    // …then keep living: these land in the post-snapshot log tail.
    std::vector<gossip::OutboundMessage> out;
    for (std::size_t i = 100; i < 106; ++i) {
      const auto frame = push_frame(make_value(i),
                                    static_cast<common::Round>(i));
      out.clear();
      ASSERT_TRUE(lived.handle_frame(PeerId(3), frame,
                                     static_cast<common::Round>(i), out));
      ASSERT_TRUE(store
                      ->append_frame(PeerId(3),
                                     static_cast<common::Round>(i), frame)
                      .has_value());
    }
  }

  const auto recovered = recover_node(0, config);
  expect_bit_identical(lived, recovered);
}

TEST(ReplicaStoreTest, StaleLogAfterSnapshotReplaysIdempotently) {
  // Crash window between snapshot write and log truncation: the full log
  // (records the snapshot already covers) is still on disk. Replaying the
  // superseded records through the duplicate-tolerant live path must
  // change nothing.
  StoreConfig config;
  config.data_dir = fresh_dir("rs_stale_log");
  config.snapshot_every_records = 0;

  auto lived = make_node(0);
  {
    std::string error;
    auto store = ReplicaStore::open(config, &error);
    ASSERT_TRUE(store.has_value()) << error;
    drive_pushes(lived, *store, 10);
    // Write the snapshot file DIRECTLY (bypassing write_snapshot) so the
    // log is left un-truncated — exactly the crash-window state.
    SnapshotData data;
    data.last_seq = store->next_seq() - 1;
    data.membership = lived.view().membership();
    data.values = lived.store().all_versions();
    ASSERT_TRUE(
        write_snapshot_file(store->snapshot_path(), data, &error))
        << error;
  }

  const auto recovered = recover_node(0, config);
  expect_bit_identical(lived, recovered);
}

TEST(ReplicaStoreTest, CorruptSnapshotSalvagesLog) {
  // The snapshot is destroyed but the log survives: recovery must not
  // crash, must report the corruption, and must still replay every log
  // record (self-declared sequence base).
  StoreConfig config;
  config.data_dir = fresh_dir("rs_corrupt_snap");
  config.snapshot_every_records = 0;

  auto lived = make_node(0);
  {
    std::string error;
    auto store = ReplicaStore::open(config, &error);
    ASSERT_TRUE(store.has_value()) << error;
    drive_pushes(lived, *store, 9);
  }
  {
    std::ofstream out(config.data_dir + "/snapshot.bin",
                      std::ios::binary | std::ios::trunc);
    out << "UPSN garbage that will not checksum";
  }

  std::string error;
  auto store = ReplicaStore::open(config, &error);
  ASSERT_TRUE(store.has_value()) << error;
  EXPECT_TRUE(store->stats().snapshot_corrupt);
  EXPECT_EQ(store->stats().records_recovered, 9u);

  auto node = make_node(0);
  SnapshotData snapshot = store->take_snapshot_state();
  node.import_durable_state(snapshot.membership, std::move(snapshot.values));
  std::vector<gossip::OutboundMessage> discard;
  store->replay([&](const ReplicaStore::RecoveredFrame& record) {
    discard.clear();
    EXPECT_TRUE(
        node.handle_frame(record.from, record.frame, record.round, discard));
  });
  // All 9 pushes lived in the log, so even without the snapshot the state
  // is fully rebuilt here.
  expect_bit_identical(lived, node);
}

TEST(ReplicaStoreTest, TornTailLosesAtMostTheLastRecord) {
  StoreConfig config;
  config.data_dir = fresh_dir("rs_torn");
  config.snapshot_every_records = 0;

  auto lived = make_node(0);
  {
    std::string error;
    auto store = ReplicaStore::open(config, &error);
    ASSERT_TRUE(store.has_value()) << error;
    drive_pushes(lived, *store, 5);
  }
  // Tear the tail: chop 5 bytes off the log.
  const std::string wal_path = config.data_dir + "/wal.log";
  std::uintmax_t size = 0;
  {
    std::ifstream in(wal_path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.good());
    size = static_cast<std::uintmax_t>(in.tellg());
  }
  ASSERT_EQ(::truncate(wal_path.c_str(),
                       static_cast<off_t>(size - 5)), 0);

  std::string error;
  auto store = ReplicaStore::open(config, &error);
  ASSERT_TRUE(store.has_value()) << error;
  EXPECT_EQ(store->stats().records_recovered, 4u);
  EXPECT_GT(store->stats().wal_discarded_bytes, 0u);
  EXPECT_NE(store->stats().recovery_tail, WalTail::kCleanEnd);
  // The reopened log was truncated to the valid prefix and appending
  // continues at the torn record's sequence.
  EXPECT_EQ(store->next_seq(), 5u);
}

TEST(ReplicaStoreTest, CountTriggerCompactsAndRecoversFromSnapshot) {
  StoreConfig config;
  config.data_dir = fresh_dir("rs_count_trigger");
  config.snapshot_every_records = 4;

  auto lived = make_node(0);
  {
    std::string error;
    auto store = ReplicaStore::open(config, &error);
    ASSERT_TRUE(store.has_value()) << error;
    std::vector<gossip::OutboundMessage> out;
    for (std::size_t i = 0; i < 10; ++i) {
      const auto frame = push_frame(make_value(i + 1),
                                    static_cast<common::Round>(i));
      out.clear();
      ASSERT_TRUE(lived.handle_frame(PeerId(2), frame,
                                     static_cast<common::Round>(i), out));
      ASSERT_TRUE(store
                      ->append_frame(PeerId(2),
                                     static_cast<common::Round>(i), frame)
                      .has_value());
      if (store->snapshot_due()) {
        ASSERT_TRUE(store->write_snapshot(lived.view().membership(),
                                          lived.store().all_versions(),
                                          &error))
            << error;
      }
    }
    EXPECT_EQ(store->stats().snapshots_written, 2u);  // after 4 and 8
  }

  const auto recovered = recover_node(0, config);
  expect_bit_identical(lived, recovered);
}

TEST(ReplicaStoreTest, OpenCreatesMissingParentDirectories) {
  // A nested data_dir whose parents do not exist yet (peerd --data-dir
  // a/b/c) must come into existence wholesale, not leave the peer volatile.
  const std::string root = ::testing::TempDir() + "/rs_nested";
  std::filesystem::remove_all(root);
  StoreConfig config;
  config.data_dir = root + "/a/b/c";

  auto lived = make_node(0);
  {
    std::string error;
    auto store = ReplicaStore::open(config, &error);
    ASSERT_TRUE(store.has_value()) << error;
    EXPECT_TRUE(std::filesystem::is_directory(config.data_dir));
    const auto frame = push_frame(make_value(1), 0);
    std::vector<gossip::OutboundMessage> out;
    ASSERT_TRUE(lived.handle_frame(PeerId(2), frame, 0, out));
    ASSERT_TRUE(store->append_frame(PeerId(2), 0, frame).has_value());
  }
  expect_bit_identical(lived, recover_node(0, config));
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace updp2p::store

#include "net/message_bus.hpp"

#include <gtest/gtest.h>

#include <string>

namespace updp2p::net {
namespace {

using common::PeerId;

// ShardedMessageBus: the two-phase, per-(src, dst)-cell bus behind the
// parallel round engine and pgrid::ReplicatedIndex.

using ShardedStringBus = ShardedMessageBus<std::string>;

TEST(ShardedMessageBus, ShardOfPartitionsContiguously) {
  ShardedStringBus bus(/*shard_count=*/4, /*population=*/100);
  EXPECT_EQ(bus.shard_count(), 4u);
  EXPECT_EQ(bus.shard_of(PeerId(0)), 0u);
  EXPECT_EQ(bus.shard_of(PeerId(24)), 0u);
  EXPECT_EQ(bus.shard_of(PeerId(25)), 1u);
  EXPECT_EQ(bus.shard_of(PeerId(99)), 3u);
  // Ids past the population clamp into the last shard instead of indexing
  // out of bounds.
  EXPECT_EQ(bus.shard_of(PeerId(1'000)), 3u);
}

TEST(ShardedMessageBus, TwoPhaseDelivery) {
  ShardedStringBus bus(2, 10);
  bus.send(PeerId(0), PeerId(7), "early", 5, 0, /*seq=*/0);
  EXPECT_EQ(bus.pending_count(), 1u);
  bus.begin_round();
  EXPECT_EQ(bus.pending_count(), 0u);
  // Sends after begin_round queue for the NEXT round.
  bus.send(PeerId(1), PeerId(7), "late", 4, 1, /*seq=*/0);

  std::vector<ShardedStringBus::EnvelopeT> batch;
  bus.collect_into(bus.shard_of(PeerId(7)), batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].payload, "early");
  EXPECT_EQ(batch[0].from, PeerId(0));
  EXPECT_EQ(batch[0].size_bytes, 5u);

  bus.begin_round();
  bus.collect_into(bus.shard_of(PeerId(7)), batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].payload, "late");
}

TEST(ShardedMessageBus, CollectSortsCanonically) {
  // Envelopes arrive sorted by (to, from, seq) regardless of the send
  // order or which source shard they came from — the property that makes
  // delivery order independent of shard scheduling.
  ShardedStringBus bus(4, 40);
  bus.send_from_shard(bus.shard_of(PeerId(30)), PeerId(30), PeerId(3), "d",
                      1, 0, 0);
  bus.send_from_shard(bus.shard_of(PeerId(5)), PeerId(5), PeerId(2), "b2",
                      1, 0, 7);
  bus.send_from_shard(bus.shard_of(PeerId(5)), PeerId(5), PeerId(2), "b1",
                      1, 0, 3);
  bus.send_from_shard(bus.shard_of(PeerId(12)), PeerId(12), PeerId(2), "c",
                      1, 0, 0);
  bus.send_from_shard(bus.shard_of(PeerId(20)), PeerId(20), PeerId(1), "a",
                      1, 0, 0);
  bus.begin_round();

  std::vector<ShardedStringBus::EnvelopeT> batch;
  bus.collect_into(0, batch);  // peers 0..9 live in shard 0
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch[0].payload, "a");   // to=1
  EXPECT_EQ(batch[1].payload, "b1");  // to=2, from=5, seq=3
  EXPECT_EQ(batch[2].payload, "b2");  // to=2, from=5, seq=7
  EXPECT_EQ(batch[3].payload, "c");   // to=2, from=12
  EXPECT_EQ(batch[4].payload, "d");   // to=3
}

TEST(ShardedMessageBus, StatsMergeAcrossShardSlots) {
  ShardedStringBus bus(2, 10);
  bus.send(PeerId(0), PeerId(9), "x", 10, 0, 0);  // shard 0's slot
  bus.send(PeerId(9), PeerId(0), "y", 20, 0, 0);  // shard 1's slot
  bus.shard_stats(0).messages_delivered = 1;
  bus.shard_stats(1).messages_dropped = 1;
  const auto merged = bus.stats();
  EXPECT_EQ(merged.messages_sent, 2u);
  EXPECT_EQ(merged.bytes_sent, 30u);
  EXPECT_EQ(merged.messages_delivered, 1u);
  EXPECT_EQ(merged.messages_dropped, 1u);
}

TEST(ShardedMessageBus, SingleShardDegenerateCase) {
  ShardedStringBus bus(1, 3);
  EXPECT_EQ(bus.shard_of(PeerId(0)), 0u);
  EXPECT_EQ(bus.shard_of(PeerId(2)), 0u);
  bus.send(PeerId(0), PeerId(1), "m", 1, 0, 0);
  bus.begin_round();
  std::vector<ShardedStringBus::EnvelopeT> batch;
  bus.collect_into(0, batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].payload, "m");
}

}  // namespace
}  // namespace updp2p::net

#include "net/message_bus.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace updp2p::net {
namespace {

using common::PeerId;

// ShardedMessageBus: the two-phase, per-(src, dst)-cell bus behind the
// parallel round engine and pgrid::ReplicatedIndex. Envelopes are 16-byte
// handles; payloads live once in their source shard's table, and each send
// is charged its payload's length.

using ShardedStringBus = ShardedMessageBus<std::string>;

bool everyone(PeerId /*to*/) { return true; }

/// One message to one recipient: store the payload in the sender's shard,
/// then queue a handle to it, as the engines do for a one-target message.
void send(ShardedStringBus& bus, PeerId from, PeerId to, std::string text,
          std::uint32_t seq) {
  const std::size_t shard = bus.shard_of(from);
  bus.send_from_shard(shard, from, to, bus.add_payload(shard, std::move(text)),
                      seq);
}

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
  send(bus, PeerId(0), PeerId(7), "early", /*seq=*/0);
  EXPECT_EQ(bus.pending_count(), 1u);
  EXPECT_EQ(bus.stats().bytes_sent, 5u);
  bus.begin_round();
  EXPECT_EQ(bus.pending_count(), 0u);
  // Sends after begin_round queue for the NEXT round.
  send(bus, PeerId(1), PeerId(7), "late", /*seq=*/0);
  EXPECT_EQ(bus.stats().bytes_sent, 9u);

  std::vector<Envelope> batch;
  EXPECT_EQ(bus.collect_into(bus.shard_of(PeerId(7)), batch, everyone), 0u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(bus.payload(batch[0]), "early");
  EXPECT_EQ(batch[0].from, PeerId(0));

  bus.begin_round();
  EXPECT_EQ(bus.collect_into(bus.shard_of(PeerId(7)), batch, everyone), 0u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(bus.payload(batch[0]), "late");
}

TEST(ShardedMessageBus, CollectSortsCanonically) {
  // Envelopes arrive sorted by (to, from, seq) regardless of the send
  // order or which source shard they came from — the property that makes
  // delivery order independent of shard scheduling.
  ShardedStringBus bus(4, 40);
  send(bus, PeerId(30), PeerId(3), "d", 0);
  send(bus, PeerId(5), PeerId(2), "b2", 7);
  send(bus, PeerId(5), PeerId(2), "b1", 3);
  send(bus, PeerId(12), PeerId(2), "c", 0);
  send(bus, PeerId(20), PeerId(1), "a", 0);
  bus.begin_round();

  std::vector<Envelope> batch;
  EXPECT_EQ(bus.collect_into(0, batch, everyone), 0u);  // peers 0..9
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(bus.payload(batch[0]), "a");   // to=1
  EXPECT_EQ(bus.payload(batch[1]), "b1");  // to=2, from=5, seq=3
  EXPECT_EQ(bus.payload(batch[2]), "b2");  // to=2, from=5, seq=7
  EXPECT_EQ(bus.payload(batch[3]), "c");   // to=2, from=12
  EXPECT_EQ(bus.payload(batch[4]), "d");   // to=3
}

TEST(ShardedMessageBus, StatsMergeAcrossShardSlots) {
  ShardedStringBus bus(2, 10);
  send(bus, PeerId(0), PeerId(9), std::string(10, 'x'), 0);  // shard 0's slot
  send(bus, PeerId(9), PeerId(0), std::string(20, 'y'), 0);  // shard 1's slot
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
  send(bus, PeerId(0), PeerId(1), "m", 0);
  bus.begin_round();
  std::vector<Envelope> batch;
  EXPECT_EQ(bus.collect_into(0, batch, everyone), 0u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(bus.payload(batch[0]), "m");
}

TEST(ShardedMessageBus, FanOutSharesOnePayload) {
  // N handles to one stored payload: every recipient, in either
  // destination shard, reads the same object.
  ShardedStringBus bus(2, 10);
  const PeerId sender(3);
  const std::size_t shard = bus.shard_of(sender);
  const std::uint32_t index = bus.add_payload(shard, "fan-out");
  for (std::uint32_t to = 0; to < 10; ++to) {
    bus.send_from_shard(shard, sender, PeerId(to), index, /*seq=*/to);
  }
  EXPECT_EQ(bus.stats().messages_sent, 10u);
  EXPECT_EQ(bus.stats().bytes_sent, 70u);  // each send charged 7 bytes
  // The table holds one entry: the next payload lands at index 1.
  EXPECT_EQ(bus.add_payload(shard, "next"), 1u);
  // A handle is valid only from its sender's shard, for a stored index.
  EXPECT_DEATH(bus.send_from_shard(1 - shard, sender, PeerId(0), index,
                                   /*seq=*/10),
               "sender's shard");
  EXPECT_DEATH(bus.send_from_shard(shard, sender, PeerId(0), /*payload=*/2,
                                   /*seq=*/10),
               "sender's shard");
  bus.begin_round();

  const std::string* shared = nullptr;
  std::size_t delivered = 0;
  std::vector<Envelope> batch;
  for (std::size_t dst = 0; dst < bus.shard_count(); ++dst) {
    EXPECT_EQ(bus.collect_into(dst, batch, everyone), 0u);
    for (const Envelope& envelope : batch) {
      EXPECT_EQ(envelope.payload, index);
      const std::string& text = bus.payload(envelope);
      if (shared == nullptr) shared = &text;
      EXPECT_EQ(&text, shared);
      EXPECT_EQ(text, "fan-out");
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 10u);
}

TEST(ShardedMessageBus, CollectLeavesOutUndeliverableRecipients) {
  // Recipients that cannot receive are counted and never reach the batch,
  // so only deliverable handles are sorted.
  ShardedStringBus bus(1, 10);
  std::uint32_t seq = 0;
  for (std::uint32_t to = 0; to < 10; ++to) {
    send(bus, PeerId(9 - to), PeerId(to), std::to_string(to), seq++);
  }
  bus.begin_round();

  std::vector<Envelope> batch;
  const auto even = [](PeerId to) { return to.value() % 2 == 0; };
  EXPECT_EQ(bus.collect_into(0, batch, even), 5u);
  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].to, PeerId(static_cast<std::uint32_t>(2 * i)));
    EXPECT_EQ(bus.payload(batch[i]), std::to_string(2 * i));
  }
}

TEST(ShardedMessageBus, ShardTasksSendAndCollectConcurrently) {
  // The round engine's access pattern, one thread per shard: each task
  // stores payloads in its own table and sends to every shard; after the
  // sequential begin_round, each task collects its column, reads payloads
  // from every source shard and replies, writing its own pending table
  // while the others read the in-flight ones.
  constexpr std::size_t kShards = 4;
  constexpr std::uint32_t kPopulation = 32;
  ShardedStringBus bus(kShards, kPopulation);
  std::vector<std::uint32_t> seq(kPopulation, 0);  // element i: i's shard
  const auto shard_peers = [&bus](std::size_t shard) {
    std::vector<PeerId> peers;
    for (std::uint32_t i = 0; i < kPopulation; ++i) {
      if (bus.shard_of(PeerId(i)) == shard) peers.emplace_back(i);
    }
    return peers;
  };
  const auto run_shards = [](const auto& task) {
    std::vector<std::thread> threads;
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      threads.emplace_back(task, shard);
    }
    for (std::thread& thread : threads) thread.join();
  };

  run_shards([&](std::size_t shard) {
    for (const PeerId from : shard_peers(shard)) {
      const std::uint32_t index =
          bus.add_payload(shard, std::to_string(from.value()));
      for (std::uint32_t to = 0; to < kPopulation; ++to) {
        bus.send_from_shard(shard, from, PeerId(to), index,
                            seq[from.value()]++);
      }
    }
  });
  bus.begin_round();

  const auto deliverable = [](PeerId to) { return to.value() % 4 != 0; };
  std::array<std::uint64_t, kShards> undeliverable{};
  std::array<std::size_t, kShards> delivered{};
  std::array<std::size_t, kShards> mismatches{};
  run_shards([&](std::size_t shard) {
    std::vector<Envelope> batch;
    undeliverable[shard] = bus.collect_into(shard, batch, deliverable);
    delivered[shard] = batch.size();
    for (const Envelope& envelope : batch) {
      if (bus.payload(envelope) != std::to_string(envelope.from.value()) ||
          bus.shard_of(envelope.to) != shard) {
        ++mismatches[shard];
      }
      send(bus, envelope.to, envelope.from, "reply",
           seq[envelope.to.value()]++);
    }
  });

  for (std::size_t shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(mismatches[shard], 0u) << "shard " << shard;
    // 8 recipients per shard, 2 of them undeliverable, 32 senders each.
    EXPECT_EQ(undeliverable[shard], 2u * kPopulation) << "shard " << shard;
    EXPECT_EQ(delivered[shard], 6u * kPopulation) << "shard " << shard;
  }
  EXPECT_EQ(bus.pending_count(), 24u * kPopulation);  // one reply each
  bus.begin_round();
  std::size_t replies = 0;
  std::vector<Envelope> batch;
  for (std::size_t dst = 0; dst < kShards; ++dst) {
    EXPECT_EQ(bus.collect_into(dst, batch, everyone), 0u);
    for (const Envelope& envelope : batch) {
      EXPECT_EQ(bus.payload(envelope), "reply");
      ++replies;
    }
  }
  EXPECT_EQ(replies, 24u * kPopulation);
  EXPECT_EQ(bus.stats().messages_sent,
            std::uint64_t{kPopulation} * kPopulation + 24u * kPopulation);
  // Every send is charged its payload's length, whichever thread sent it.
  std::uint64_t bytes = 24u * kPopulation * std::string("reply").size();
  for (std::uint32_t from = 0; from < kPopulation; ++from) {
    bytes += kPopulation * std::to_string(from).size();
  }
  EXPECT_EQ(bus.stats().bytes_sent, bytes);
}

}  // namespace
}  // namespace updp2p::net

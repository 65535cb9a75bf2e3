// Simulated point-to-point transport for the round-synchronous engines
// (sim::RoundSimulator, pgrid::ReplicatedIndex).
//
// Paper §3 deliberately ignores physical connectivity: "if two peers are
// online a communication channel may be established between them", and a
// peer that cannot be reached is indistinguishable from an offline peer.
// The bus therefore models only what the protocol observes — delivery to
// online peers, loss to offline ones — plus the bookkeeping the evaluation
// measures (message and byte counts, §4.1). Delivery policy lives in the
// engine that owns the bus, which records each outcome in the bus's
// per-shard stats.
//
// The bus is round-synchronous: messages sent during round t are delivered
// at the start of round t+1, matching the discrete-time analysis model.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace updp2p::net {

/// Aggregate transport statistics for one protocol run.
struct BusStats {
  std::uint64_t messages_sent = 0;       ///< all sends, incl. to offline peers
  std::uint64_t messages_delivered = 0;  ///< receiver was online
  std::uint64_t messages_to_offline = 0; ///< receiver offline: silently lost
  std::uint64_t messages_partitioned = 0;///< blocked by the link filter (cut)
  std::uint64_t messages_dropped = 0;    ///< random loss (loss_probability)
  std::uint64_t bytes_sent = 0;

  [[nodiscard]] double delivery_ratio() const noexcept {
    return messages_sent == 0
               ? 1.0
               : static_cast<double>(messages_delivered) /
                     static_cast<double>(messages_sent);
  }
};

/// In-flight or delivered message envelope.
///
/// Payloads are moved, never copied, between send and delivery, so a
/// Payload holding ref-counted data (e.g. a gossip::SharedFrame of encoded
/// bytes) fans out to N recipients for N refcount bumps — the bus itself
/// never duplicates a wire frame. size_bytes is whatever the sender
/// charged; the bus only accumulates it.
template <typename Payload>
struct Envelope {
  common::PeerId from;
  common::PeerId to;
  Payload payload;
  std::uint64_t size_bytes = 0;
  common::Round sent_round = 0;
  /// Per-sender monotone sequence number. (from, seq) is unique within a
  /// round, which gives the sharded bus a total delivery order that does
  /// not depend on shard layout or thread interleaving.
  std::uint32_t seq = 0;
};

/// Round-synchronous bus partitioned into per-(src_shard, dst_shard)
/// outboxes for parallel round execution.
///
/// The population [0, population) is cut into `shard_count` contiguous
/// blocks. During the parallel phase each shard task mutates only its own
/// row of outbox cells (send_from_shard) and its own stats slot, so no two
/// threads ever touch the same cell — the bus needs no locks. The protocol
/// is two-phase:
///
///   1. begin_round() — sequential: every cell's pending buffer becomes the
///      in-flight buffer (messages sent in round t surface in round t+1,
///      the discrete-time model of §3).
///   2. collect_into(dst, batch) — one caller per dst shard, in parallel:
///      gathers every in-flight envelope addressed to `dst` and sorts it by
///      the canonical (to, from, seq) key. The canonical order makes the
///      delivery sequence — and therefore every downstream RNG draw — a
///      pure function of the message *set*, independent of shard count and
///      thread interleaving. (from, seq) is unique per sender, so the sort
///      has no ties and no reliance on stability.
///
/// Delivery policy (offline receivers, partitions, random loss) is the
/// driver's job: it classifies each collected envelope and records the
/// outcome into its shard_stats(dst) slot; send-side counters are kept by
/// send_from_shard in the source shard's slot. stats() merges all slots.
template <typename Payload>
class ShardedMessageBus {
 public:
  using EnvelopeT = Envelope<Payload>;

  ShardedMessageBus(std::size_t shard_count, std::size_t population)
      : shards_(shard_count == 0 ? 1 : shard_count),
        block_(population == 0 ? 1
                               : (population + shards_ - 1) / shards_),
        cells_(shards_ * shards_),
        shard_stats_(shards_) {}

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_; }
  [[nodiscard]] std::size_t shard_of(common::PeerId peer) const noexcept {
    const std::size_t shard = peer.value() / block_;
    return shard < shards_ ? shard : shards_ - 1;
  }

  /// Enqueues a message from the parallel task that owns `src_shard`
  /// (which must be shard_of(from)). Thread-safe across *distinct* source
  /// shards by disjointness, not by locking.
  void send_from_shard(std::size_t src_shard, common::PeerId from,
                       common::PeerId to, Payload payload,
                       std::uint64_t size_bytes, common::Round round,
                       std::uint32_t seq) {
    BusStats& stats = shard_stats_[src_shard].stats;
    ++stats.messages_sent;
    stats.bytes_sent += size_bytes;
    cells_[src_shard * shards_ + shard_of(to)].pending.push_back(
        EnvelopeT{from, to, std::move(payload), size_bytes, round, seq});
  }

  /// Sequential-context convenience (round-0 publish, reconnect hooks).
  void send(common::PeerId from, common::PeerId to, Payload payload,
            std::uint64_t size_bytes, common::Round round,
            std::uint32_t seq) {
    send_from_shard(shard_of(from), from, to, std::move(payload), size_bytes,
                    round, seq);
  }

  /// Publishes the pending buffers: everything sent before this call
  /// becomes in-flight (deliverable this round); sends after it queue for
  /// the next round. Sequential — call between parallel phases.
  // holds(shard): sequential between parallel phases; no shard task runs
  void begin_round() {
    for (Cell& cell : cells_) {
      cell.inflight.clear();  // capacity retained
      std::swap(cell.pending, cell.inflight);
    }
  }

  /// Gathers the in-flight envelopes addressed to shard `dst` into `batch`
  /// (replacing its contents), sorted by (to, from, seq). Envelopes are
  /// moved out; call once per shard per round, from the task owning `dst`.
  void collect_into(std::size_t dst_shard, std::vector<EnvelopeT>& batch) {
    batch.clear();
    std::size_t total = 0;
    for (std::size_t src = 0; src < shards_; ++src) {
      total += cells_[src * shards_ + dst_shard].inflight.size();
    }
    batch.reserve(total);
    for (std::size_t src = 0; src < shards_; ++src) {
      for (EnvelopeT& envelope : cells_[src * shards_ + dst_shard].inflight) {
        batch.push_back(std::move(envelope));
      }
    }
    std::sort(batch.begin(), batch.end(),
              [](const EnvelopeT& a, const EnvelopeT& b) {
                if (a.to != b.to) return a.to < b.to;
                if (a.from != b.from) return a.from < b.from;
                return a.seq < b.seq;
              });
  }

  /// The stats slot owned by `shard` — the parallel task records its
  /// delivery outcomes here without contention.
  [[nodiscard]] BusStats& shard_stats(std::size_t shard) noexcept {
    return shard_stats_[shard].stats;
  }

  /// Merged view over all shard slots.
  // holds(shard): read-only merge run sequentially after the round joins
  [[nodiscard]] BusStats stats() const {
    BusStats merged;
    for (const PaddedStats& slot : shard_stats_) {
      merged.messages_sent += slot.stats.messages_sent;
      merged.messages_delivered += slot.stats.messages_delivered;
      merged.messages_to_offline += slot.stats.messages_to_offline;
      merged.messages_partitioned += slot.stats.messages_partitioned;
      merged.messages_dropped += slot.stats.messages_dropped;
      merged.bytes_sent += slot.stats.bytes_sent;
    }
    return merged;
  }

  // holds(shard): diagnostic count, called between rounds only
  [[nodiscard]] std::size_t pending_count() const noexcept {
    std::size_t total = 0;
    for (const Cell& cell : cells_) total += cell.pending.size();
    return total;
  }

 private:
  struct Cell {
    std::vector<EnvelopeT> pending;   ///< sends this round
    std::vector<EnvelopeT> inflight;  ///< deliverable this round
  };
  /// Padded so per-shard counters never false-share a cache line.
  struct alignas(64) PaddedStats {
    BusStats stats;
  };

  std::size_t shards_;
  std::size_t block_;
  std::vector<Cell> cells_;  ///< row-major [src][dst] — guarded-by(shard)
  std::vector<PaddedStats> shard_stats_;  // guarded-by(shard)
};

}  // namespace updp2p::net

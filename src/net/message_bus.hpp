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
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ensure.hpp"
#include "common/types.hpp"

namespace updp2p::net {

/// Aggregate transport statistics for one protocol run.
struct BusStats {
  std::uint64_t messages_sent = 0;       ///< all sends, incl. to offline peers
  std::uint64_t messages_delivered = 0;  ///< receiver was online
  std::uint64_t messages_to_offline = 0; ///< receiver offline: silently lost
  std::uint64_t messages_dropped = 0;    ///< random loss (loss_probability)
  std::uint64_t bytes_sent = 0;

  [[nodiscard]] double delivery_ratio() const noexcept {
    return messages_sent == 0
               ? 1.0
               : static_cast<double>(messages_delivered) /
                     static_cast<double>(messages_sent);
  }
};

/// In-flight or delivered message handle: 16 bytes, trivially copyable.
///
/// Each payload is stored once, in its source shard's table (add_payload),
/// and envelopes name it by index: a push fanned out to N recipients is N
/// handles to one payload, so collecting and sorting a round's traffic
/// moves 16-byte handles and never touches a payload (read: payload()).
struct Envelope {
  common::PeerId from;
  common::PeerId to;
  /// Per-sender monotone sequence number. (from, seq) is unique within a
  /// round, which gives the sharded bus a total delivery order that does
  /// not depend on shard layout or thread interleaving.
  std::uint32_t seq = 0;
  /// Index into the payload table of shard_of(from).
  std::uint32_t payload = 0;
};
static_assert(sizeof(Envelope) == 16 &&
              std::is_trivially_copyable_v<Envelope>);

/// Round-synchronous bus partitioned into per-(src_shard, dst_shard)
/// outboxes for parallel round execution.
///
/// The population [0, population) is cut into `shard_count` contiguous
/// blocks. During the parallel phase each shard task mutates only its own
/// row of outbox cells (send_from_shard), its own payload table
/// (add_payload) and its own stats slot, so no two threads ever write the
/// same memory — the bus needs no locks. The protocol is two-phase:
///
///   1. begin_round() — sequential: every cell's pending buffer, and every
///      source shard's payload table, becomes the in-flight one (messages
///      sent in round t surface in round t+1, the discrete-time model of
///      §3). The previous in-flight payloads are destroyed here.
///   2. collect_into(dst, batch, deliverable) — one caller per dst shard,
///      in parallel: gathers the in-flight envelopes addressed to `dst`,
///      counts and leaves out those whose recipient cannot receive, and
///      sorts the rest by the canonical (to, from, seq) key. The canonical
///      order makes the delivery sequence — and therefore every downstream
///      RNG draw — a pure function of the message *set*, independent of
///      shard count and thread interleaving. (from, seq) is unique per
///      sender, so the sort has no ties and no reliance on stability.
///
/// Delivery policy (offline receivers, random loss) is the driver's job:
/// its `deliverable` predicate decides which recipients can receive, and it
/// records the outcome of every collected envelope into its
/// shard_stats(dst) slot; send-side counters are kept by send_from_shard in
/// the source shard's slot. stats() merges all slots.
template <typename Payload>
class ShardedMessageBus {
 public:
  ShardedMessageBus(std::size_t shard_count, std::size_t population)
      : shards_(shard_count == 0 ? 1 : shard_count),
        block_(population == 0 ? 1
                               : (population + shards_ - 1) / shards_),
        cells_(shards_ * shards_),
        slots_(shards_),
        inflight_payloads_(shards_) {}

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_; }
  [[nodiscard]] std::size_t shard_of(common::PeerId peer) const noexcept {
    const std::size_t shard = peer.value() / block_;
    return shard < shards_ ? shard : shards_ - 1;
  }

  /// Stores a payload for this round's sends from `src_shard` and returns
  /// its index; any number of send_from_shard calls may then refer to it.
  /// Called from the task that owns `src_shard`.
  [[nodiscard]] std::uint32_t add_payload(std::size_t src_shard,
                                          Payload payload) {
    std::vector<Payload>& table = slots_[src_shard].payloads;
    UPDP2P_ENSURE(table.size() < std::numeric_limits<std::uint32_t>::max(),
                  "a shard's payload table outgrew the u32 envelope index");
    table.push_back(std::move(payload));
    return static_cast<std::uint32_t>(table.size() - 1);
  }

  /// Enqueues a handle to payload `payload` (an index add_payload returned
  /// this round) from the parallel task that owns `src_shard`, which must
  /// be shard_of(from): payload() looks the index up there. The send is
  /// charged the payload's size() in bytes. Thread-safe across *distinct*
  /// source shards by disjointness, not by locking.
  void send_from_shard(std::size_t src_shard, common::PeerId from,
                       common::PeerId to, std::uint32_t payload,
                       std::uint32_t seq) {
    ShardSlot& slot = slots_[src_shard];
    UPDP2P_ENSURE(shard_of(from) == src_shard &&
                      payload < slot.payloads.size(),
                  "a send must name a payload its sender's shard stored");
    ++slot.stats.messages_sent;
    slot.stats.bytes_sent += slot.payloads[payload].size();
    cells_[src_shard * shards_ + shard_of(to)].pending.push_back(
        Envelope{from, to, seq, payload});
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
    for (std::size_t shard = 0; shard < shards_; ++shard) {
      inflight_payloads_[shard].clear();
      std::swap(slots_[shard].payloads, inflight_payloads_[shard]);
    }
  }

  /// Gathers the in-flight envelopes addressed to shard `dst` into `batch`
  /// (replacing its contents), sorted by (to, from, seq). An envelope
  /// whose recipient fails `deliverable(to)` is counted and left out
  /// before the sort; the count is returned. Call once per shard per
  /// round, from the task owning `dst`.
  template <typename Deliverable>
  [[nodiscard]] std::uint64_t collect_into(std::size_t dst_shard,
                                           std::vector<Envelope>& batch,
                                           Deliverable&& deliverable) {
    batch.clear();
    std::uint64_t undeliverable = 0;
    for (std::size_t src = 0; src < shards_; ++src) {
      for (const Envelope& envelope :
           cells_[src * shards_ + dst_shard].inflight) {
        if (deliverable(envelope.to)) {
          batch.push_back(envelope);
        } else {
          ++undeliverable;
        }
      }
    }
    std::sort(batch.begin(), batch.end(),
              [](const Envelope& a, const Envelope& b) {
                if (a.to != b.to) return a.to < b.to;
                if (a.from != b.from) return a.from < b.from;
                return a.seq < b.seq;
              });
    return undeliverable;
  }

  /// The payload an in-flight envelope names; valid until the next
  /// begin_round. Safe from any shard task during the parallel phase.
  // holds(shard): in-flight tables are written only by the sequential
  // begin_round; shard tasks only read them
  [[nodiscard]] const Payload& payload(const Envelope& envelope) const {
    return inflight_payloads_[shard_of(envelope.from)][envelope.payload];
  }

  /// The stats slot owned by `shard` — the parallel task records its
  /// delivery outcomes here without contention.
  [[nodiscard]] BusStats& shard_stats(std::size_t shard) noexcept {
    return slots_[shard].stats;
  }

  /// Merged view over all shard slots.
  // holds(shard): read-only merge run sequentially after the round joins
  [[nodiscard]] BusStats stats() const {
    BusStats merged;
    for (const ShardSlot& slot : slots_) {
      merged.messages_sent += slot.stats.messages_sent;
      merged.messages_delivered += slot.stats.messages_delivered;
      merged.messages_to_offline += slot.stats.messages_to_offline;
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
    std::vector<Envelope> pending;   ///< sends this round
    std::vector<Envelope> inflight;  ///< deliverable this round
  };
  /// What one shard task writes during the parallel phase, padded so two
  /// shards' counters never false-share a cache line.
  struct alignas(64) ShardSlot {
    BusStats stats;
    std::vector<Payload> payloads;  ///< payloads of this round's sends
  };

  std::size_t shards_;
  std::size_t block_;
  std::vector<Cell> cells_;  ///< row-major [src][dst] — guarded-by(shard)
  std::vector<ShardSlot> slots_;  // guarded-by(shard)
  /// Per source shard: the payloads the in-flight envelopes name.
  std::vector<std::vector<Payload>> inflight_payloads_;  // guarded-by(shard)
};

}  // namespace updp2p::net

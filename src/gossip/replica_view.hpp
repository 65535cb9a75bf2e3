// A peer's partial view of its replica group.
//
// Paper §2: "each replica knows a minimal fraction of the complete set of
// replicas … additionally replicas get known through the update mechanism"
// — the partial flooding list doubles as membership dissemination (the
// name-dropper effect, §7.2/[14]). The view also tracks the §6 ack state:
// preferred pushers (peers that acked us) and presumed-offline peers
// (pushed, never acked) that are temporarily skipped.
//
// Membership is held ONLY in a compressed ChunkedPeerSet (2 bytes per
// member in sparse chunks, 1 bit in dense ones — no parallel member
// vector), and a received flooding list — itself a ChunkedPeerSet —
// merges by word-parallel set difference: one AND-NOT pass discovers the
// new ids and the union absorbs them, instead of a hash probe per entry.
// Uniform sampling rank-selects straight off the compressed form
// (select_rank: array chunks answer by index, bitmap chunks by popcount
// scan), so membership costs no duplicate storage and a merge performs
// exactly one insertion per new id. Per-view state is O(|view|), not
// O(population) — the property that lets 100k+ populations fit in memory.
// Sampling uses arena scratch: after warm-up a call to sample_into
// performs no heap allocation. The scratch state makes a view
// non-reentrant but each node owns its view exclusively (and
// arena-sharing nodes never run concurrently).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/chunked_peer_set.hpp"
#include "common/dense_peer_set.hpp"
#include "common/rng.hpp"
#include "common/small_peer_set.hpp"
#include "common/types.hpp"
#include "gossip/arena.hpp"

namespace updp2p::gossip {

class ReplicaView {
 public:
  explicit ReplicaView(common::PeerId self) : self_(self) {
    // The index holds the owner too: flooding lists legitimately name it,
    // and keeping it in the set lets merges run pure set algebra with no
    // per-element self test. contains() re-excludes it below.
    if (self_.is_valid()) known_.insert(self_);
  }

  /// Shares the given scratch arena instead of a privately owned one.
  /// Pass nullptr to fall back to private scratch (standalone nodes).
  void use_arena(WorkArena* arena) noexcept { arena_ = arena; }

  /// Adds a peer; returns true if it was previously unknown. The owner
  /// itself is never a member.
  bool add(common::PeerId peer);

  /// Merges a received peer list; returns how many peers were new
  /// (membership knowledge gained through gossip).
  std::size_t merge(std::span<const common::PeerId> peers);

  /// Merges a received flooding list in compressed form: one pass of
  /// word-parallel set difference (AND-NOT over bitmap chunks) discovers
  /// the new ids while the union absorbs them. Returns how many were new.
  std::size_t merge(const common::ChunkedPeerSet& peers);

  [[nodiscard]] bool contains(common::PeerId peer) const {
    return peer != self_ && known_.contains(peer);
  }
  /// Member count (the owner is excluded, though the index holds it).
  [[nodiscard]] std::size_t size() const noexcept {
    return known_.size() - (self_.is_valid() ? 1 : 0);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] common::PeerId self() const noexcept { return self_; }
  /// Upper bound (exclusive) on peer ids this view has observed (including
  /// ids offered to add()); useful for pre-sizing caller-owned DensePeerSet
  /// scratch in one step instead of letting it grow geometrically.
  [[nodiscard]] std::size_t id_capacity() const noexcept { return id_bound_; }

  /// The compressed membership index, read-only. Note the representation
  /// invariant: the owner id is IN the set (merges run pure set algebra);
  /// consumers that want members only must skip self(). The durable store
  /// snapshots this set verbatim — re-merging it on recovery is idempotent
  /// and self-tolerant, so the self entry round-trips harmlessly.
  [[nodiscard]] const common::ChunkedPeerSet& membership() const noexcept {
    return known_;
  }

  /// Samples up to `count` distinct peers into `out` (replacing its
  /// contents), excluding peers in `exclude` (when non-null) and peers
  /// currently presumed offline (§6 suppression). Preferred pushers are
  /// `preferred_weight()` times as likely to be picked first. Produces
  /// fewer than `count` when the view is small. Allocation-free once the
  /// arena's scratch buffers are warm.
  void sample_into(common::StreamRng& rng, std::size_t count,
                   std::vector<common::PeerId>& out,
                   const common::DensePeerSet* exclude = nullptr,
                   common::Round now = 0) const;

  /// Allocating convenience wrapper around sample_into.
  [[nodiscard]] std::vector<common::PeerId> sample(
      common::StreamRng& rng, std::size_t count,
      const std::unordered_set<common::PeerId>& exclude = {},
      common::Round now = 0) const;

  /// How strongly §6-preferred peers are oversampled (1 = no preference).
  void set_preferred_weight(unsigned weight) noexcept {
    preferred_weight_ = weight == 0 ? 1 : weight;
  }
  [[nodiscard]] unsigned preferred_weight() const noexcept {
    return preferred_weight_;
  }

  /// §6: the ack told us `peer` is a responsive target.
  void mark_preferred(common::PeerId peer);
  /// §6: no ack came back — presume `peer` offline until round
  /// `until_round` and skip it when sampling.
  void mark_presumed_offline(common::PeerId peer, common::Round until_round);
  /// Clears the presumed-offline mark (e.g. the peer contacted us).
  void clear_presumed_offline(common::PeerId peer);

  [[nodiscard]] bool is_preferred(common::PeerId peer) const {
    return preferred_.contains(peer);
  }
  /// Whether `peer` is marked presumed-offline at round `now`. Exact for
  /// any mark still recorded, at any `now` (including rewound queries);
  /// marks dropped by an earlier lazy purge — they had expired at or
  /// before that purge's round — read as online.
  [[nodiscard]] bool is_presumed_offline(common::PeerId peer,
                                         common::Round now) const;
  /// Live count of presumed-offline peers at `now`. O(1) after the lazy
  /// purge for this round has run (expired marks are dropped on access).
  [[nodiscard]] std::size_t presumed_offline_count(common::Round now) const;

 private:
  /// Lazily drops marks that expired at or before `now`; after the purge
  /// every remaining entry satisfies `now < until`, so the map size IS the
  /// live count. Rounds advance monotonically in every driver, so a purge
  /// at round t never erases a mark still live at a later query.
  void purge_presumed_offline(common::Round now) const;

  /// Whether the view holds EVERY valid non-self id below id_bound_.
  /// Members are distinct valid ids below the bound excluding self, so
  /// this is a pure counting argument — and while it holds, membership of
  /// any in-bound id is decidable without touching the index.
  [[nodiscard]] bool saturated() const noexcept {
    return size() +
               (self_.is_valid() && self_.value() < id_bound_ ? 1u : 0u) ==
           id_bound_;
  }

  /// Member with the given ascending rank among the non-self members.
  /// `self_rank` is known_.rank_of(self_), hoisted by the caller so a
  /// sampling loop pays the rank lookup once.
  [[nodiscard]] common::PeerId member_at(std::size_t rank,
                                         std::size_t self_rank) const {
    return known_.select_rank(rank + (rank >= self_rank ? 1 : 0));
  }

  /// The wired arena, or a lazily created private one.
  [[nodiscard]] WorkArena& arena() const {
    if (arena_ != nullptr) return *arena_;
    if (!owned_arena_) owned_arena_ = std::make_unique<WorkArena>();
    return *owned_arena_;
  }

  common::PeerId self_;
  unsigned preferred_weight_ = 2;
  std::size_t id_bound_ = 0;
  common::ChunkedPeerSet known_;  ///< members ∪ {self_}, compressed
  common::SmallPeerSet preferred_;
  mutable std::unordered_map<common::PeerId, common::Round>
      presumed_offline_until_;
  mutable common::Round offline_purged_at_ = 0;

  WorkArena* arena_ = nullptr;
  mutable std::unique_ptr<WorkArena> owned_arena_;
};

}  // namespace updp2p::gossip

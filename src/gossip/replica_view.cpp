#include "gossip/replica_view.hpp"

#include <algorithm>

namespace updp2p::gossip {

bool ReplicaView::add(common::PeerId peer) {
  // Track the id bound for every peer *offered*, not just those stored:
  // sampling draws ids below id_bound_ for dense views, and a flooding
  // list may legitimately contain this view's owner.
  if (peer.is_valid()) {
    if (peer.value() + 1 > id_bound_) {
      id_bound_ = peer.value() + 1;
    } else if (peer != self_ && saturated()) {
      // Pigeonhole: the view holds every valid non-self id below
      // id_bound_, and this peer is below the bound — it is provably a
      // member already. Skipping the probe keeps flooding-list merges
      // into bootstrap-full views from touching the index at all.
      return false;
    }
  }
  if (peer == self_) return false;
  return known_.insert(peer);
}

std::size_t ReplicaView::merge(std::span<const common::PeerId> peers) {
  // Saturated views absorb most peer lists without touching the index at
  // all: when every offered id is below id_bound_, the pigeonhole argument
  // in add() covers the whole list, so the merge is a pure no-op
  // (membership and id_bound_ both unchanged). One branch-free max-scan
  // over the list replaces per-peer add() calls. Invalid ids read as
  // 0xFFFFFFFF and a valid id bound never exceeds them, so they fall
  // through to the slow path unchanged.
  if (saturated()) {
    std::uint32_t max_id = 0;
    for (const common::PeerId peer : peers) {
      max_id = std::max(max_id, peer.value());
    }
    if (max_id < id_bound_) return 0;
  }
  std::size_t added = 0;
  for (const common::PeerId peer : peers) {
    if (add(peer)) ++added;
  }
  return added;
}

std::size_t ReplicaView::merge(const common::ChunkedPeerSet& peers) {
  if (peers.empty()) return 0;
  // Saturated fast path: every id in `peers` below the bound is provably
  // known (counting argument), so a bounded max_id means a no-op merge —
  // one O(1) check instead of touching any chunk.
  const std::uint32_t peers_max = peers.max_id();
  if (saturated() && peers_max < id_bound_) return 0;
  if (static_cast<std::size_t>(peers_max) + 1 > id_bound_) {
    id_bound_ = static_cast<std::size_t>(peers_max) + 1;
  }
  // One union, nothing else: self_ is pre-inserted so it is never "new",
  // and the count is the set's size delta. An incoming bitmap chunk is
  // shared rather than copied when this view lacks its range or holds no id
  // in it that the chunk lacks, so views bootstrapped from one set hold one
  // buffer per chunk between them.
  const std::size_t before = known_.size();
  known_.insert_all(peers);
  return known_.size() - before;
}

bool ReplicaView::is_presumed_offline(common::PeerId peer,
                                      common::Round now) const {
  // Pure read — no purge. A mark still in the map is answered exactly by
  // the expiry comparison, so a rewound `now` (tests, default-argument
  // callers) gets the same answer the pre-purge implementation gave.
  // Purging is driven by presumed_offline_count and sample_into, whose
  // O(1)-count/empty fast paths need the map trimmed; a mark such a purge
  // at round t dropped had `until <= t` and reads as online afterwards,
  // matching presumed_offline_count's fallback scan, which cannot see
  // purged marks either.
  const auto it = presumed_offline_until_.find(peer);
  return it != presumed_offline_until_.end() && now < it->second;
}

std::size_t ReplicaView::presumed_offline_count(common::Round now) const {
  purge_presumed_offline(now);
  if (offline_purged_at_ >= now) return presumed_offline_until_.size();
  // `now` ran backwards (possible in tests); fall back to a scan.
  std::size_t count = 0;
  // lint-allow(iteration-order): count accumulation is order-insensitive
  for (const auto& [peer, until] : presumed_offline_until_) {
    if (now < until) ++count;
  }
  return count;
}

void ReplicaView::purge_presumed_offline(common::Round now) const {
  if (now <= offline_purged_at_ || presumed_offline_until_.empty()) return;
  offline_purged_at_ = now;
  // Every mark has a heap entry holding its expiry, so popping the entries
  // with until <= now visits every expired mark.
  while (!offline_expiry_.empty() && offline_expiry_.front().until <= now) {
    const Expiry top = offline_expiry_.front();
    std::pop_heap(offline_expiry_.begin(), offline_expiry_.end());
    offline_expiry_.pop_back();
    const auto it = presumed_offline_until_.find(top.peer);
    if (it != presumed_offline_until_.end() && it->second == top.until) {
      presumed_offline_until_.erase(it);
    }
  }
  if (presumed_offline_until_.empty()) offline_expiry_.clear();
}

void ReplicaView::mark_preferred(common::PeerId peer) {
  if (peer != self_) preferred_.insert(peer);
}

void ReplicaView::mark_presumed_offline(common::PeerId peer,
                                        common::Round until_round) {
  const auto [it, created] =
      presumed_offline_until_.try_emplace(peer, until_round);
  if (!created && until_round <= it->second) return;  // never shortens
  it->second = until_round;
  offline_expiry_.push_back(Expiry{until_round, peer});
  std::push_heap(offline_expiry_.begin(), offline_expiry_.end());
}

void ReplicaView::clear_presumed_offline(common::PeerId peer) {
  if (presumed_offline_until_.erase(peer) != 0 &&
      presumed_offline_until_.empty()) {
    offline_expiry_.clear();
  }
}

void ReplicaView::sample_into(common::StreamRng& rng, std::size_t count,
                              std::vector<common::PeerId>& out,
                              WorkArena& scratch, common::Round now) const {
  out.clear();
  const std::size_t member_count = size();
  if (count == 0 || member_count == 0) return;

  purge_presumed_offline(now);
  const bool check_offline = !presumed_offline_until_.empty();
  const bool weighted = preferred_weight_ > 1 && !preferred_.empty();

  // Picks dedup in a hash set sized by the picks, never by id_bound_:
  // the bound is whatever id a flooding list named, up to 2^28 off the
  // wire, and an id-indexed array over it would be 1 GiB.
  common::SmallPeerSet& chosen = scratch.chosen;
  chosen.reserve(std::min(count, member_count));
  chosen.clear();
  out.reserve(std::min(count, member_count));

  if (!weighted) {
    // Unweighted fast path: rejection-sample straight off the compressed
    // index — no O(|view|) pool copy per call. Dense views (members fill
    // most of the id space, so chunks are bitmaps and rank selection
    // would popcount-scan) draw a uniform ID and reject non-members: an
    // O(1) membership probe per trial with acceptance >= 1/4. Sparse
    // views draw a uniform RANK and select it (array chunks answer by
    // index). Either way every rejected pick — non-member, duplicate,
    // presumed-offline — leaves the remaining draw uniform over the
    // eligible members. The attempt budget bounds the rare
    // pathological case; exhausting it falls through to the exact pool
    // walk below, which finishes the sample without replacement.
    const bool dense = member_count * 4 >= id_bound_;
    const std::size_t self_rank = dense ? 0 : known_.rank_of(self_);
    std::size_t attempts = dense ? 8 * count + 32 : 4 * count + 16;
    while (out.size() < count && attempts-- > 0) {
      common::PeerId peer = common::PeerId::invalid();
      if (dense) {
        peer = common::PeerId(
            static_cast<std::uint32_t>(rng.pick_index(id_bound_)));
        if (peer == self_ || !known_.contains(peer)) continue;
      } else {
        peer = member_at(rng.pick_index(member_count), self_rank);
      }
      if (check_offline && is_presumed_offline(peer, now)) continue;
      if (chosen.insert(peer)) out.push_back(peer);
    }
    if (out.size() >= count || out.size() == member_count) return;
  }

  // Candidate pool: the membership materialised once (ascending), plus
  // `preferred_weight_ - 1` extra copies of each eligible §6-preferred
  // member so acked peers are proportionally more likely to be picked.
  // Presumed-offline peers stay IN the base pool and are rejected at
  // pick time instead: they are a handful while the view holds thousands
  // of peers, so rejecting the picks that land on them is far cheaper
  // than an O(|view|) filtering pass per call — and a rejected pick
  // leaves the remaining sample exactly uniform over the eligible pool.
  std::vector<common::PeerId>& pool = scratch.pool;
  pool.clear();
  pool.reserve(member_count);
  known_.for_each([this, &pool](common::PeerId peer) {
    if (peer != self_) pool.push_back(peer);
  });
  if (weighted) {
    preferred_.for_each([&](common::PeerId peer) {
      if (!contains(peer)) return;  // preferred but not in the view
      if (check_offline && is_presumed_offline(peer, now)) return;
      for (unsigned w = 1; w < preferred_weight_; ++w) pool.push_back(peer);
    });
  }

  // Partial Fisher–Yates with pick-time rejection, de-duplicating picks
  // (including any made by the fast path above).
  std::size_t remaining = pool.size();
  while (out.size() < count && remaining > 0) {
    const std::size_t pick = rng.pick_index(remaining);
    const common::PeerId peer = pool[pick];
    pool[pick] = pool[remaining - 1];
    --remaining;
    if (check_offline && is_presumed_offline(peer, now)) continue;
    if (chosen.insert(peer)) out.push_back(peer);
  }
}

}  // namespace updp2p::gossip

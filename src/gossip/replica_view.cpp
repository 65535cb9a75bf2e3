#include "gossip/replica_view.hpp"

#include <algorithm>

namespace updp2p::gossip {

bool ReplicaView::add(common::PeerId peer) {
  // Track the id bound for every peer *offered*, not just those stored:
  // callers size DensePeerSet scratch off id_capacity() to cover flooding
  // lists, and a list may legitimately contain this view's owner.
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
  // One insertion per new id, nothing else: self_ is pre-inserted so it is
  // never "new", and with a no-op novelty callback the absorb's per-id
  // reporting loops compile away — bitmap chunks merge as pure OR/popcount
  // sweeps. The count is the set's size delta.
  const std::size_t before = known_.size();
  known_.absorb(peers, [](common::PeerId) {});
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
  std::erase_if(presumed_offline_until_,
                [now](const auto& entry) { return entry.second <= now; });
}

void ReplicaView::mark_preferred(common::PeerId peer) {
  if (peer != self_) preferred_.insert(peer);
}

void ReplicaView::mark_presumed_offline(common::PeerId peer,
                                        common::Round until_round) {
  auto& slot = presumed_offline_until_[peer];
  slot = std::max(slot, until_round);
}

void ReplicaView::clear_presumed_offline(common::PeerId peer) {
  presumed_offline_until_.erase(peer);
}

void ReplicaView::sample_into(common::StreamRng& rng, std::size_t count,
                              std::vector<common::PeerId>& out,
                              const common::DensePeerSet* exclude,
                              common::Round now) const {
  out.clear();
  const std::size_t member_count = size();
  if (count == 0 || member_count == 0) return;

  purge_presumed_offline(now);
  const bool check_offline = !presumed_offline_until_.empty();
  const bool check_exclude = exclude != nullptr && !exclude->empty();
  const bool weighted = preferred_weight_ > 1 && !preferred_.empty();

  common::DensePeerSet& chosen = arena().chosen;
  chosen.reserve_ids(id_bound_);
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
    // excluded, presumed-offline — leaves the remaining draw uniform
    // over the eligible members. The attempt budget bounds the rare
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
      if (check_exclude && exclude->contains(peer)) continue;
      if (check_offline && is_presumed_offline(peer, now)) continue;
      if (chosen.insert(peer)) out.push_back(peer);
    }
    if (out.size() >= count || out.size() == member_count) return;
  }

  // Candidate pool: the membership materialised once (ascending), plus
  // `preferred_weight_ - 1` extra copies of each eligible §6-preferred
  // member so acked peers are proportionally more likely to be picked.
  // Excluded and presumed-offline peers stay IN the base pool and are
  // rejected at pick time instead: an exclusion list is ~fanout long
  // while the view holds thousands of peers, so rejecting the handful of
  // picks that land on them is far cheaper than an O(|view|) filtering
  // pass per call — and a rejected pick leaves the remaining sample
  // exactly uniform over the eligible pool.
  std::vector<common::PeerId>& pool = arena().pool;
  pool.clear();
  pool.reserve(member_count);
  known_.for_each([this, &pool](common::PeerId peer) {
    if (peer != self_) pool.push_back(peer);
  });
  if (weighted) {
    preferred_.for_each([&](common::PeerId peer) {
      if (!contains(peer)) return;  // preferred but not in the view
      if (check_exclude && exclude->contains(peer)) return;
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
    if (check_exclude && exclude->contains(peer)) continue;
    if (check_offline && is_presumed_offline(peer, now)) continue;
    if (chosen.insert(peer)) out.push_back(peer);
  }
}

std::vector<common::PeerId> ReplicaView::sample(
    common::StreamRng& rng, std::size_t count,
    const std::unordered_set<common::PeerId>& exclude,
    common::Round now) const {
  std::vector<common::PeerId> out;
  if (exclude.empty()) {
    sample_into(rng, count, out, nullptr, now);
    return out;
  }
  common::DensePeerSet& scratch = arena().exclude;
  scratch.clear();
  // lint-allow(iteration-order): set-to-set copy, membership is order-free
  for (const common::PeerId peer : exclude) scratch.insert(peer);
  sample_into(rng, count, out, &scratch, now);
  return out;
}

}  // namespace updp2p::gossip

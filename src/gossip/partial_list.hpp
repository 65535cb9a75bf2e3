// The §4.2 forward step's list algebra, and partial flooding-list
// maintenance.
//
// A forwarder pushes to R_p \ R_f and sends R_f ∪ {self} ∪ R_p on.
// build_forward_list_into computes both in one sweep per touched 2^16-id
// chunk of the compressed list (ChunkedPeerSet::assign_union_compact_new):
// the surviving targets keep their sampled order, so send order and every
// draw match a filter-then-insert implementation, at O(|R_f| + |R_p| +
// words spanned) with no binary search and no sorted insert.
//
// §4.2: the list may be bounded by a threshold length, "achieved by
// discarding either random entries or the head or tail of the partial
// list"; forwarding nodes then "pay the penalty of forwarding extra
// messages" but awareness growth is unchanged.
//
// The list is a compressed ChunkedPeerSet ordered by peer id, so the
// head/tail drop policies order by id: kDropHead discards the lowest ids
// (keeps the highest), kDropTail discards the highest. kDropRandom samples
// the survivors uniformly straight from the compressed form — the merged
// list never materialises as a vector.
#pragma once

#include <vector>

#include "common/chunked_peer_set.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "gossip/config.hpp"

namespace updp2p::gossip {

/// The forward step. Drops from `targets` (R_p, distinct peers in sampled
/// order), keeping the order of the rest, every peer on the received list
/// and `from` (pass PeerId::invalid() when there is no sender). When a
/// target survives, builds the outgoing R_f into `out` (replacing its
/// contents): the received list ∪ {self} ∪ the surviving targets, then the
/// configured cap; kNone yields an empty list. When none survives, `out`
/// is left empty and no draw is made. With warm chunk buffers the call
/// performs no heap allocation.
void build_forward_list_into(const PartialListConfig& config,
                             const common::ChunkedPeerSet& received,
                             std::vector<common::PeerId>& targets,
                             common::PeerId from, common::PeerId self,
                             common::StreamRng& rng,
                             common::ChunkedPeerSet& out);

/// Allocating convenience wrapper around build_forward_list_into with no
/// sender; returns the outgoing list only.
[[nodiscard]] common::ChunkedPeerSet build_forward_list(
    const PartialListConfig& config, const common::ChunkedPeerSet& received,
    std::vector<common::PeerId> targets, common::PeerId self,
    common::StreamRng& rng);

}  // namespace updp2p::gossip

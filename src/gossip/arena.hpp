// Shared hot-path scratch for gossip nodes.
//
// PR 1 made the per-message path allocation-free by giving every node its
// own reusable scratch buffers — five vectors and several stamp sets per
// replica. At 10k replicas that private scratch dominates resident memory
// (a DensePeerSet stamp array alone is O(population) per node). Only one
// node per driver thread executes at a time, so the scratch can be shared:
// a WorkArena holds one set of buffers that every node wired to it reuses.
// A sequential owner (ReplicatedIndex) uses one arena for the whole
// population; the sharded RoundSimulator uses one arena per shard, which
// keeps the sharing single-threaded by construction. A PeerRuntime keeps
// its node's private scratch: each runtime is its own event loop.
//
// Every buffer is cleared (or assigned) by its user before use, never read
// across calls, so handing the same arena to many nodes is safe as long as
// no two of them run concurrently.
#pragma once

#include <vector>

#include "common/chunked_peer_set.hpp"
#include "common/dense_peer_set.hpp"
#include "common/types.hpp"
#include "gossip/codec.hpp"

namespace updp2p::gossip {

struct WorkArena {
  // ReplicaNode scratch.
  std::vector<common::PeerId> targets;   ///< select_targets output
  std::vector<common::PeerId> contacts;  ///< make_pull contacts
  common::ChunkedPeerSet list;           ///< outgoing forward list build
  common::ChunkedPeerSet recv_list;      ///< streaming push-frame decode

  // Wire-path scratch: one encode per fan-out (the interned-frame cache
  // serves the other N-1 targets), one reference alive at a time.
  FrameCache frames;

  // ReplicaView::sample_into scratch.
  std::vector<common::PeerId> pool;      ///< weighted candidate pool
  common::DensePeerSet chosen;           ///< distinct-pick dedup
  common::DensePeerSet exclude;          ///< sample() wrapper only
};

}  // namespace updp2p::gossip

// Value-returning forms of ReplicaNode's event handlers, for tests.
//
// The node's handlers append their reactions to a caller-owned vector so
// a round engine can reuse one buffer across a whole round. A test usually
// wants one event's reactions on their own; these wrappers run the handler
// into a fresh vector and return it. A message is delivered as the frame
// a peer would send, through handle_frame, the node's one way in.
#pragma once

#include <vector>

#include "common/ensure.hpp"
#include "gossip/codec.hpp"
#include "gossip/node.hpp"

namespace updp2p::testsupport {

/// The reactions of `node` to one message, delivered encoded. Aborts if
/// the node refuses the frame: every payload a test builds must encode to
/// a frame that decodes.
[[nodiscard]] inline std::vector<gossip::OutboundMessage> deliver(
    gossip::ReplicaNode& node, common::PeerId from,
    const gossip::GossipPayload& payload, common::Round now) {
  std::vector<gossip::OutboundMessage> out;
  UPDP2P_ENSURE(node.handle_frame(from, gossip::encode(payload), now, out),
                "the node refused the frame of a test payload");
  return out;
}

/// What `node` sends on coming back online (§3 pull, unless lazy).
[[nodiscard]] inline std::vector<gossip::OutboundMessage> reconnect(
    gossip::ReplicaNode& node, common::Round now) {
  std::vector<gossip::OutboundMessage> out;
  node.on_reconnect(now, out);
  return out;
}

/// What `node` sends from its per-round timer processing.
[[nodiscard]] inline std::vector<gossip::OutboundMessage> round_start(
    gossip::ReplicaNode& node, common::Round now) {
  std::vector<gossip::OutboundMessage> out;
  node.on_round_start(now, out);
  return out;
}

}  // namespace updp2p::testsupport

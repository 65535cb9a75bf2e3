// Value-returning forms of ReplicaNode's event handlers, for tests.
//
// The node's handlers append their reactions to a caller-owned vector so
// a round engine can reuse one buffer across a whole round. A test usually
// wants one event's reactions on their own; these wrappers run the handler
// into a fresh vector and return it.
#pragma once

#include <vector>

#include "gossip/node.hpp"

namespace updp2p::testsupport {

/// The reactions of `node` to one delivered message.
[[nodiscard]] inline std::vector<gossip::OutboundMessage> deliver(
    gossip::ReplicaNode& node, common::PeerId from,
    const gossip::GossipPayload& payload, common::Round now) {
  std::vector<gossip::OutboundMessage> out;
  node.handle_message(from, payload, now, out);
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

// Value-returning forms of ReplicaNode's event handlers, for tests.
//
// The node's handlers append their reactions to a caller-owned vector so
// a round engine can reuse one buffer across a whole round. A test usually
// wants one event's reactions on their own, as the datagrams a host would
// send: these wrappers run the handler into a fresh vector and return
// sends() of it. A message is delivered as the frame a peer would send,
// through handle_frame, the node's one way in.
#pragma once

#include <vector>

#include "common/ensure.hpp"
#include "gossip/codec.hpp"
#include "gossip/node.hpp"

namespace updp2p::testsupport {

/// One datagram's worth of a message: its payload, to one of its targets.
struct Send {
  common::PeerId to;
  gossip::GossipPayload payload;
};

/// Expands messages into one (to, payload) pair per target, in the order a
/// host sends them. Aborts on a message without targets, which no node
/// may emit.
[[nodiscard]] inline std::vector<Send> sends(
    const std::vector<gossip::OutboundMessage>& out) {
  std::vector<Send> expanded;
  for (const gossip::OutboundMessage& message : out) {
    UPDP2P_ENSURE(!message.targets.empty(), "a message without targets");
    for (const common::PeerId to : message.targets) {
      expanded.push_back({to, message.payload});
    }
  }
  return expanded;
}

/// The sends of `node` in reaction to one message, delivered encoded.
/// Aborts if the node refuses the frame: every payload a test builds must
/// encode to a frame that decodes.
[[nodiscard]] inline std::vector<Send> deliver(
    gossip::ReplicaNode& node, common::PeerId from,
    const gossip::GossipPayload& payload, common::Round now) {
  std::vector<gossip::OutboundMessage> out;
  UPDP2P_ENSURE(node.handle_frame(from, gossip::encode(payload), now, out),
                "the node refused the frame of a test payload");
  return sends(out);
}

/// What `node` sends on coming back online (§3 pull, unless lazy).
[[nodiscard]] inline std::vector<Send> reconnect(gossip::ReplicaNode& node,
                                                 common::Round now) {
  std::vector<gossip::OutboundMessage> out;
  node.on_reconnect(now, out);
  return sends(out);
}

/// What `node` sends from its per-round timer processing.
[[nodiscard]] inline std::vector<Send> round_start(gossip::ReplicaNode& node,
                                                   common::Round now) {
  std::vector<gossip::OutboundMessage> out;
  node.on_round_start(now, out);
  return sends(out);
}

}  // namespace updp2p::testsupport

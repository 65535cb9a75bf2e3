#include "gossip/messages.hpp"

namespace updp2p::gossip {

const char* payload_kind(const GossipPayload& payload) noexcept {
  switch (payload.index()) {
    case kPushIndex: return "push";
    case kPullRequestIndex: return "pull-request";
    case kPullResponseIndex: return "pull-response";
    case kAckIndex: return "ack";
    case kQueryRequestIndex: return "query-request";
    case kQueryReplyIndex: return "query-reply";
    default: return "?";
  }
}

}  // namespace updp2p::gossip

#include "gossip/partial_list.hpp"

#include <algorithm>

namespace updp2p::gossip {

const char* to_string(PartialListMode mode) noexcept {
  switch (mode) {
    case PartialListMode::kNone: return "none";
    case PartialListMode::kUnbounded: return "unbounded";
    case PartialListMode::kDropRandom: return "drop-random";
    case PartialListMode::kDropHead: return "drop-head";
    case PartialListMode::kDropTail: return "drop-tail";
  }
  return "?";
}

void build_forward_list_into(const PartialListConfig& config,
                             const common::ChunkedPeerSet& received,
                             std::vector<common::PeerId>& targets,
                             common::PeerId from, common::PeerId self,
                             common::StreamRng& rng,
                             common::ChunkedPeerSet& out) {
  std::erase(targets, from);
  targets.resize(out.assign_union_compact_new(received, targets, self));
  if (targets.empty() || config.mode == PartialListMode::kNone) {
    out.clear();
    return;
  }

  if (config.mode == PartialListMode::kUnbounded ||
      out.size() <= config.max_entries) {
    return;
  }

  const std::size_t cap = config.max_entries;
  switch (config.mode) {
    case PartialListMode::kDropHead:
      // Discard the head of the id-ordered list: keep the highest ids.
      out.keep_highest(cap);
      break;
    case PartialListMode::kDropTail:
      out.keep_lowest(cap);
      break;
    case PartialListMode::kDropRandom:
      // Uniform cap-subset sampled from the compressed form.
      out.keep_random(rng, cap);
      break;
    case PartialListMode::kNone:
    case PartialListMode::kUnbounded:
      break;  // unreachable; handled above
  }
}

common::ChunkedPeerSet build_forward_list(
    const PartialListConfig& config, const common::ChunkedPeerSet& received,
    std::vector<common::PeerId> targets, common::PeerId self,
    common::StreamRng& rng) {
  common::ChunkedPeerSet out;
  build_forward_list_into(config, received, targets, common::PeerId::invalid(),
                          self, rng, out);
  return out;
}

}  // namespace updp2p::gossip

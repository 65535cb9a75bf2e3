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
                             std::span<const common::PeerId> new_targets,
                             common::PeerId self, common::StreamRng& rng,
                             common::ChunkedPeerSet& out) {
  out.clear();
  if (config.mode == PartialListMode::kNone) return;

  // Union: received ∪ {self} ∪ targets. The set representation dedups by
  // construction. Seed the tiny {self} ∪ targets side first (inserts into
  // a near-empty array chunk), then absorb the large received list in one
  // merge pass — the reverse order would pay a sorted-insert memmove per
  // target into an already-populated chunk.
  out.insert(self);
  for (const common::PeerId peer : new_targets) out.insert(peer);
  out.insert_all(received);

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
    const std::vector<common::PeerId>& new_targets, common::PeerId self,
    common::StreamRng& rng) {
  common::ChunkedPeerSet out;
  build_forward_list_into(config, received, new_targets, self, rng, out);
  return out;
}

}  // namespace updp2p::gossip

#include "chaos/properties.hpp"

#include <algorithm>

#include "gossip/node.hpp"

namespace updp2p::chaos {

PropertyTracker::PropertyTracker(std::size_t population) : knew_(population) {}

void PropertyTracker::note_published(const version::VersionedValue& value,
                                     common::PeerId publisher) {
  published_.push_back(
      Published{value.id, value.key, value.history, publisher});
}

void PropertyTracker::observe(common::PeerId peer,
                              const gossip::ReplicaNode& node) {
  std::vector<bool>& row = knew_[peer.value()];
  row.resize(published_.size(), false);
  for (std::size_t v = 0; v < published_.size(); ++v) {
    const bool knows = node.knows_version(published_[v].id);
    if (row[v] && !knows) {
      violations_.push_back(
          "monotone awareness: peer " + std::to_string(peer.value()) +
          " forgot version '" + published_[v].key +
          "' without losing its store");
    }
    if (knows) row[v] = true;
  }
}

void PropertyTracker::note_state_lost(common::PeerId peer) {
  knew_[peer.value()].assign(published_.size(), false);
}

void PropertyTracker::check_recovery(common::PeerId peer,
                                     const common::Digest128& died_with,
                                     const common::Digest128& recovered) {
  if (died_with.hi != recovered.hi || died_with.lo != recovered.lo) {
    violations_.push_back(
        "recovery digest: peer " + std::to_string(peer.value()) +
        " died with " + died_with.to_hex() + " but recovered " +
        recovered.to_hex());
  }
}

void PropertyTracker::check_final(common::PeerId peer,
                                  const gossip::ReplicaNode& node) {
  for (const Published& update : published_) {
    if (node.knows_version(update.id)) continue;
    const auto versions = node.store().versions(update.key);
    const bool superseded = std::any_of(
        versions.begin(), versions.end(),
        [&update](const version::VersionedValue& held) {
          return update.history.covered_by(held.history);
        });
    if (!superseded) {
      violations_.push_back(
          "eventual delivery: peer " + std::to_string(peer.value()) +
          " never learned version '" + update.key + "' published by peer " +
          std::to_string(update.publisher.value()));
    }
  }
}

}  // namespace updp2p::chaos

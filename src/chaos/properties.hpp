// Convergence property checks for chaos runs.
//
// The tracker watches every peer across the schedule and accumulates
// violations of the protocol's promises under the paper's model:
//
//  * monotone awareness — once a replica knows a version it never
//    un-knows it, unless its store was wiped or it never had one;
//  * recovery digest equality — a durable peer killed with an intact,
//    fault-free store must restart with exactly the content digest it
//    died with (append-before-ack, §"no lost update after ack");
//  * eventual delivery — after the schedule ends (scenarios end healed,
//    with a settle phase), every live online replica knows every
//    successfully published version, or stores a version of its key whose
//    history dominates it (pull never ships a superseded version).
//
// Violations are strings meant for humans AND for the shrinker, which
// only needs "empty or not".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "version/store.hpp"

namespace updp2p::gossip {
class ReplicaNode;
}

namespace updp2p::chaos {

class PropertyTracker {
 public:
  explicit PropertyTracker(std::size_t population);

  /// Records a successful publish (publish on a dead/offline peer is a
  /// traced no-op, not a tracked update), with the version's history.
  void note_published(const version::VersionedValue& value,
                      common::PeerId publisher);

  /// Re-scans one live peer's awareness of every published version.
  /// Call at phase boundaries and at the end of the run.
  void observe(common::PeerId peer, const gossip::ReplicaNode& node);

  /// The peer lost its durable state (wiped on kill, or it was volatile):
  /// forgetting is now legitimate, so its awareness baseline resets.
  void note_state_lost(common::PeerId peer);

  /// Compares a restarted durable peer's recovered digest against the
  /// digest captured at kill time (when the store was fault-free).
  void check_recovery(common::PeerId peer, const common::Digest128& died_with,
                      const common::Digest128& recovered);

  /// End-of-run eventual-delivery check over the final live online set.
  void check_final(common::PeerId peer, const gossip::ReplicaNode& node);

  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::size_t published_count() const noexcept {
    return published_.size();
  }

 private:
  struct Published {
    version::VersionId id;
    std::string key;
    version::VersionVector history;
    common::PeerId publisher;
  };

  std::vector<Published> published_;
  /// knew_[peer][version index] — the awareness high-water mark.
  std::vector<std::vector<bool>> knew_;
  std::vector<std::string> violations_;
};

}  // namespace updp2p::chaos

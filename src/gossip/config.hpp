// Configuration of the hybrid push/pull gossip protocol.
//
// Every knob maps to a symbol in the paper's Table 1 / §6: fanout fraction
// f_r, forwarding probability PF(t), partial-list handling (l_max and the
// discard policy), ack-based suppression and pull behaviour.
#pragma once

#include <cstdint>

#include "analysis/forward_probability.hpp"
#include "common/ensure.hpp"
#include "common/types.hpp"

namespace updp2p::gossip {

/// How a peer bounds the partial flooding list R_f it forwards (§4.2: "This
/// can be achieved by discarding either random entries or the head or tail
/// of the partial list"; kNone disables the list entirely, the Gnutella-like
/// degenerate case).
enum class PartialListMode : std::uint8_t {
  kNone,        ///< no list propagated (maximal duplicates)
  kUnbounded,   ///< full list always forwarded
  kDropRandom,  ///< capped; discard random entries beyond the cap
  kDropHead,    ///< capped; keep the newest entries
  kDropTail,    ///< capped; keep the oldest entries
};

[[nodiscard]] const char* to_string(PartialListMode mode) noexcept;

struct PartialListConfig {
  PartialListMode mode = PartialListMode::kUnbounded;
  /// Maximum number of entries forwarded when capped (absolute count; the
  /// analysis' normalised l_max equals max_entries / R).
  std::size_t max_entries = 0;
};

/// §6 acknowledgement optimisation: when enabled, a replica acks the first
/// pusher of each version it receives (paper: "only to the first or first k
/// random replicas"; this implementation takes k = 1). Later pushes of the
/// same version are duplicates and get no ack.
struct AckConfig {
  bool enabled = false;
  /// Rounds a peer that never acked is presumed offline and skipped when
  /// selecting fanout targets. 0 disables suppression.
  common::Round suppression_rounds = 0;
  /// Sampling weight of peers that acked us (1 = no preference). Higher
  /// values concentrate pushes on provably-responsive peers — useful when
  /// a reliable backbone exists (paper §8).
  unsigned preferred_weight = 2;
};

/// Pull-phase behaviour (§3 pull pseudocode + §6 lazy variant).
struct PullConfig {
  /// Peers contacted per pull attempt ("it is preferable to contact
  /// multiple peers and choose the most up to date peer(s) among them").
  unsigned contacts_per_attempt = 3;
  /// A peer that saw no update for this many rounds becomes "not confident"
  /// and pulls (paper: no_updates_since(t)).
  common::Round no_update_timeout = 20;
  /// §6 lazy pull: on reconnect wait for the first push instead of pulling
  /// immediately; trades query latency for fewer pull messages.
  bool lazy = false;
};

/// How push targets are chosen. The paper argues fresh random choice per
/// push (§2: "better load balancing … improved robustness against changes
/// in the peer network"); kFixedNeighbors models topology-dependent schemes
/// like directional gossip [20], which §7.2 predicts "cannot be applied"
/// under churn because cached topology knowledge rots.
enum class TargetSelection : std::uint8_t {
  kRandomPerPush,
  kFixedNeighbors,
};

struct GossipConfig {
  /// f_r — fraction of the believed total replica population each push
  /// fans out to.
  double fanout_fraction = 0.01;
  TargetSelection target_selection = TargetSelection::kRandomPerPush;
  /// R — the replica population size this group was provisioned for. Peers
  /// use it to turn f_r into an absolute fanout; their *view* may know
  /// fewer peers, in which case they push to everyone they know.
  std::size_t estimated_total_replicas = 1'000;
  /// PF(t) schedule; replaced by the self-tuning controller when
  /// `self_tuning` is set.
  analysis::PfSchedule forward_probability = analysis::pf_constant(1.0);
  /// §6: modulate PF(t) by locally observed duplicates and list coverage.
  bool self_tuning = false;

  PartialListConfig partial_list;
  AckConfig acks;
  PullConfig pull;

  [[nodiscard]] std::size_t absolute_fanout() const {
    const double raw =
        fanout_fraction * static_cast<double>(estimated_total_replicas);
    const auto fanout = static_cast<std::size_t>(raw + 0.5);
    return fanout == 0 ? 1 : fanout;
  }

  void validate() const {
    UPDP2P_ENSURE(fanout_fraction > 0.0 && fanout_fraction <= 1.0,
                  "f_r must be in (0,1]");
    UPDP2P_ENSURE(estimated_total_replicas > 0, "population must be positive");
    UPDP2P_ENSURE(pull.contacts_per_attempt > 0,
                  "pull must contact at least one peer");
  }
};

}  // namespace updp2p::gossip

// Demers-style anti-entropy (pull-only) baseline.
//
// Paper §3 likens its pull phase to anti-entropy [9] (Demers et al., PODC
// 1987). This standalone implementation — every online peer periodically
// reconciles with one random partner via version-vector summaries — is the
// pull-only comparator: it converges without any push phase, but pays for
// it in per-round traffic and latency, which the pull-phase benches
// quantify.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "churn/churn_model.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "version/store.hpp"

namespace updp2p::baselines {

struct AntiEntropyConfig {
  std::size_t population = 100;
  /// Partners each online peer contacts per round (usually 1 in [9]).
  unsigned partners_per_round = 1;
  /// Pull vs push-pull reconciliation: push-pull exchanges deltas both ways
  /// in a single pairing, converging roughly twice as fast.
  bool push_pull = false;
  std::uint64_t seed = 0x5eed;
};

struct AntiEntropyMetrics {
  common::Round rounds = 0;
  std::uint64_t sync_sessions = 0;       ///< pairwise exchanges performed
  std::uint64_t values_transferred = 0;  ///< versions shipped
  double final_aware_fraction = 0.0;     ///< peers holding the update
};

/// A population of versioned stores doing periodic anti-entropy under churn.
class AntiEntropySystem {
 public:
  AntiEntropySystem(AntiEntropyConfig config,
                    std::unique_ptr<churn::ChurnModel> churn);

  /// Seeds one update at a random online peer, then runs reconciliation
  /// rounds until every peer knows it or `max_rounds` elapse.
  AntiEntropyMetrics propagate_until_consistent(common::Round max_rounds);

  [[nodiscard]] version::VersionedStore& store(common::PeerId peer) {
    return stores_.at(peer.value());
  }
  [[nodiscard]] std::size_t population() const noexcept {
    return stores_.size();
  }
  /// Fraction of all peers whose summary covers the seeded update.
  [[nodiscard]] double aware_fraction() const;

 private:
  void run_round(AntiEntropyMetrics& metrics);
  std::uint64_t reconcile(common::PeerId puller, common::PeerId pulled);

  AntiEntropyConfig config_;
  std::unique_ptr<churn::ChurnModel> churn_;
  common::StreamRng rng_;
  std::vector<version::VersionedStore> stores_;
  version::VersionVector seeded_summary_;
};

}  // namespace updp2p::baselines

// Non-uniform peer availability (paper §8 future work).
//
// "Also the effect of non-uniform online probability of peers needs to be
// explored. In such a scenario a relatively reliable network backbone would
// exist and thus would make possible further performance improvements."
//
// HeterogeneousChurn gives every peer its own (σ_i, p_join_i); the
// make_backbone_churn() factory builds the paper's scenario: a small
// fraction of highly available peers amid a flaky majority, and
// make_session_churn() the homogeneous case phrased in mean session
// lengths.
#pragma once

#include <memory>
#include <vector>

#include "churn/churn_model.hpp"

namespace updp2p::churn {

/// Per-peer two-state churn: peer i stays online with sigma[i] and rejoins
/// with p_join[i] per round.
class HeterogeneousChurn final : public ChurnModel {
 public:
  struct PeerRates {
    double initial_online_probability = 0.2;
    double sigma = 0.95;
    double p_join = 0.0;
  };

  explicit HeterogeneousChurn(std::vector<PeerRates> rates);

  void reset(common::StreamRng& rng) override;
  void advance(common::StreamRng& rng) override;

  [[nodiscard]] const PeerRates& rates(common::PeerId peer) const {
    return rates_.at(peer.value());
  }

 private:
  std::vector<PeerRates> rates_;
};

/// The §8 backbone scenario: `backbone_fraction` of the population is
/// highly available (σ=backbone_sigma, availability≈backbone_availability);
/// the rest churns like the paper's default flaky peers. Backbone peers get
/// the LOWEST ids (0 .. backbone_count−1) so experiments can address them.
[[nodiscard]] std::unique_ptr<HeterogeneousChurn> make_backbone_churn(
    std::size_t population, double backbone_fraction,
    double backbone_availability, double backbone_sigma,
    double flaky_availability, double flaky_sigma);

/// Homogeneous two-state churn phrased in mean session lengths (in rounds):
/// every peer stays online with σ = 1 − 1/mean_online_rounds and rejoins
/// with p_j = 1/mean_offline_rounds, starting from the stationary
/// availability. Both means must be at least one round.
[[nodiscard]] std::unique_ptr<HeterogeneousChurn> make_session_churn(
    std::size_t population, double mean_online_rounds,
    double mean_offline_rounds);

}  // namespace updp2p::churn

#include "churn/heterogeneous.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace updp2p::churn {

HeterogeneousChurn::HeterogeneousChurn(std::vector<PeerRates> rates)
    : ChurnModel(rates.size()), rates_(std::move(rates)) {
  UPDP2P_ENSURE(!rates_.empty(), "population must be non-empty");
  for (const auto& r : rates_) {
    UPDP2P_ENSURE(r.sigma >= 0.0 && r.sigma <= 1.0, "sigma in [0,1]");
    UPDP2P_ENSURE(r.p_join >= 0.0 && r.p_join <= 1.0, "p_join in [0,1]");
    UPDP2P_ENSURE(r.initial_online_probability >= 0.0 &&
                      r.initial_online_probability <= 1.0,
                  "initial probability in [0,1]");
  }
}

void HeterogeneousChurn::reset(common::StreamRng& rng) {
  auto& set = mutable_online();
  for (std::uint32_t i = 0; i < population(); ++i) {
    set.set(common::PeerId(i),
            rng.bernoulli(rates_[i].initial_online_probability));
  }
}

void HeterogeneousChurn::advance(common::StreamRng& rng) {
  auto& set = mutable_online();
  for (std::uint32_t i = 0; i < population(); ++i) {
    const common::PeerId peer(i);
    const auto& r = rates_[i];
    if (set.is_online(peer)) {
      if (!rng.bernoulli(r.sigma)) set.set(peer, false);
    } else {
      if (rng.bernoulli(r.p_join)) set.set(peer, true);
    }
  }
}

namespace {
/// Derives p_join so the stationary availability hits the target given σ:
/// a = p / (p + 1−σ)  =>  p = a(1−σ) / (1−a).
double p_join_for(double availability, double sigma) {
  if (availability >= 1.0) return 1.0;
  return availability * (1.0 - sigma) / (1.0 - availability);
}
}  // namespace

std::unique_ptr<HeterogeneousChurn> make_backbone_churn(
    std::size_t population, double backbone_fraction,
    double backbone_availability, double backbone_sigma,
    double flaky_availability, double flaky_sigma) {
  UPDP2P_ENSURE(backbone_fraction >= 0.0 && backbone_fraction <= 1.0,
                "backbone fraction in [0,1]");
  const auto backbone_count =
      static_cast<std::size_t>(backbone_fraction *
                               static_cast<double>(population) + 0.5);
  std::vector<HeterogeneousChurn::PeerRates> rates(population);
  for (std::size_t i = 0; i < population; ++i) {
    auto& r = rates[i];
    if (i < backbone_count) {
      r.sigma = backbone_sigma;
      r.initial_online_probability = backbone_availability;
      r.p_join = std::min(1.0, p_join_for(backbone_availability,
                                          backbone_sigma));
    } else {
      r.sigma = flaky_sigma;
      r.initial_online_probability = flaky_availability;
      r.p_join = std::min(1.0, p_join_for(flaky_availability, flaky_sigma));
    }
  }
  return std::make_unique<HeterogeneousChurn>(std::move(rates));
}

std::unique_ptr<HeterogeneousChurn> make_session_churn(
    std::size_t population, double mean_online_rounds,
    double mean_offline_rounds) {
  UPDP2P_ENSURE(mean_online_rounds >= 1.0 && mean_offline_rounds >= 1.0,
                "mean session lengths are at least one round");
  HeterogeneousChurn::PeerRates rates;
  rates.sigma = 1.0 - 1.0 / mean_online_rounds;
  rates.p_join = 1.0 / mean_offline_rounds;
  rates.initial_online_probability =
      rates.p_join / (rates.p_join + (1.0 - rates.sigma));
  return std::make_unique<HeterogeneousChurn>(
      std::vector<HeterogeneousChurn::PeerRates>(population, rates));
}

}  // namespace updp2p::churn

#include "churn/heterogeneous.hpp"

#include <cmath>

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

double HeterogeneousChurn::stationary_availability(common::PeerId peer) const {
  const auto& r = rates_.at(peer.value());
  const double leave = 1.0 - r.sigma;
  const double denom = r.p_join + leave;
  return denom == 0.0 ? r.initial_online_probability : r.p_join / denom;
}

namespace {
/// Purpose key of DiurnalTraceGenerator's habit draws.
constexpr std::uint64_t kHabitPurpose = 0xD1A1;

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

DiurnalTraceGenerator::DiurnalTraceGenerator(std::size_t population,
                                             common::Round period_rounds,
                                             double day_availability,
                                             double night_availability)
    : population_(population),
      period_(period_rounds),
      day_(day_availability),
      night_(night_availability) {
  UPDP2P_ENSURE(population > 0, "population must be positive");
  UPDP2P_ENSURE(period_rounds > 0, "period must be positive");
  UPDP2P_ENSURE(day_availability >= 0.0 && day_availability <= 1.0 &&
                    night_availability >= 0.0 && night_availability <= 1.0,
                "availabilities in [0,1]");
}

double DiurnalTraceGenerator::availability_at(common::Round t) const {
  const double phase = 2.0 * 3.141592653589793 *
                       static_cast<double>(t % period_) /
                       static_cast<double>(period_);
  // Peaks mid-period ("midday"), troughs at the boundaries.
  const double wave = 0.5 - 0.5 * std::cos(phase);
  return night_ + (day_ - night_) * wave;
}

std::vector<std::vector<common::PeerId>> DiurnalTraceGenerator::generate(
    common::Round rounds, std::uint64_t seed) const {
  // Each peer gets a random "habit offset" so individual sessions are
  // stable (people keep their hours) while aggregate availability follows
  // the diurnal wave.
  common::StreamRng rng(seed, 0, kHabitPurpose);
  std::vector<double> habit(population_);
  for (auto& h : habit) h = rng.uniform01();

  std::vector<std::vector<common::PeerId>> schedule;
  schedule.reserve(rounds);
  for (common::Round t = 0; t < rounds; ++t) {
    const double availability = availability_at(t);
    std::vector<common::PeerId> online;
    for (std::uint32_t i = 0; i < population_; ++i) {
      // A peer is online whenever the wave exceeds its habit threshold:
      // low-threshold peers are the backbone-ish always-on users.
      if (habit[i] < availability) online.emplace_back(i);
    }
    schedule.push_back(std::move(online));
  }
  return schedule;
}

}  // namespace updp2p::churn

#include "churn/churn_model.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace updp2p::churn {

void OnlineSet::set(common::PeerId peer, bool online) noexcept {
  const auto idx = peer.value();
  if (online_[idx] == online) return;
  online_[idx] = online;
  count_ += online ? 1 : std::size_t(-1);
}

std::vector<common::PeerId> OnlineSet::online_peers() const {
  std::vector<common::PeerId> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < online_.size(); ++i) {
    if (online_[i]) out.emplace_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

// --- BernoulliChurn ---------------------------------------------------------

BernoulliChurn::BernoulliChurn(std::size_t population,
                               double initial_online_fraction, double sigma,
                               double p_join)
    : ChurnModel(population),
      initial_online_fraction_(initial_online_fraction),
      sigma_(sigma),
      p_join_(p_join) {
  UPDP2P_ENSURE(sigma >= 0.0 && sigma <= 1.0, "sigma must be in [0,1]");
  UPDP2P_ENSURE(p_join >= 0.0 && p_join <= 1.0, "p_join must be in [0,1]");
  UPDP2P_ENSURE(initial_online_fraction >= 0.0 && initial_online_fraction <= 1.0,
                "initial online fraction must be in [0,1]");
}

void BernoulliChurn::reset(common::StreamRng& rng) {
  auto& set = mutable_online();
  const auto n = static_cast<std::uint32_t>(population());
  const auto k = static_cast<std::uint32_t>(
      initial_online_fraction_ * static_cast<double>(n) + 0.5);
  for (std::uint32_t i = 0; i < n; ++i) set.set(common::PeerId(i), false);
  for (const std::uint32_t idx : rng.sample_without_replacement(n, k)) {
    set.set(common::PeerId(idx), true);
  }
}

void BernoulliChurn::advance(common::StreamRng& rng) {
  auto& set = mutable_online();
  for (std::uint32_t i = 0; i < population(); ++i) {
    const common::PeerId peer(i);
    if (set.is_online(peer)) {
      if (!rng.bernoulli(sigma_)) set.set(peer, false);
    } else {
      if (rng.bernoulli(p_join_)) set.set(peer, true);
    }
  }
}

double BernoulliChurn::stationary_fraction() const noexcept {
  const double leave = 1.0 - sigma_;
  const double denom = p_join_ + leave;
  return denom == 0.0 ? initial_online_fraction_ : p_join_ / denom;
}

// --- TraceChurn ---------------------------------------------------------------

TraceChurn::TraceChurn(std::size_t population,
                       std::vector<std::vector<common::PeerId>> schedule)
    : ChurnModel(population), schedule_(std::move(schedule)) {
  UPDP2P_ENSURE(!schedule_.empty(), "trace schedule must have at least one round");
  for (const auto& round : schedule_) {
    for (const common::PeerId peer : round) {
      UPDP2P_ENSURE(peer.value() < population, "trace peer id out of range");
    }
  }
}

void TraceChurn::apply_round(std::size_t round) {
  const auto& online_list = schedule_[std::min(round, schedule_.size() - 1)];
  auto& set = mutable_online();
  for (std::uint32_t i = 0; i < population(); ++i) {
    set.set(common::PeerId(i), false);
  }
  for (const common::PeerId peer : online_list) set.set(peer, true);
}

void TraceChurn::reset(common::StreamRng& /*rng*/) {
  round_ = 0;
  apply_round(0);
}

void TraceChurn::advance(common::StreamRng& /*rng*/) {
  apply_round(++round_);
}

// --- SessionProcess -------------------------------------------------------------

SessionProcess::SessionProcess(double mean_online_time, double mean_offline_time)
    : mean_online_(mean_online_time), mean_offline_(mean_offline_time) {
  UPDP2P_ENSURE(mean_online_time > 0.0 && mean_offline_time > 0.0,
                "mean session times must be positive");
}

}  // namespace updp2p::churn

#include "baselines/anti_entropy.hpp"

#include "common/ensure.hpp"

namespace updp2p::baselines {

namespace {
/// Purpose key of the system's one stream (churn, partner picks, seeding).
constexpr std::uint64_t kAntiEntropyPurpose = 0xAE;
}  // namespace

AntiEntropySystem::AntiEntropySystem(AntiEntropyConfig config,
                                     std::unique_ptr<churn::ChurnModel> churn)
    : config_(config),
      churn_(std::move(churn)),
      rng_(config.seed, 0, kAntiEntropyPurpose) {
  UPDP2P_ENSURE(churn_ != nullptr, "a churn model is required");
  UPDP2P_ENSURE(churn_->population() == config_.population,
                "churn population must match system population");
  stores_.resize(config_.population);
  churn_->reset(rng_);
}

std::uint64_t AntiEntropySystem::reconcile(common::PeerId puller,
                                           common::PeerId pulled) {
  auto& dst = stores_[puller.value()];
  const auto& src = stores_[pulled.value()];
  std::uint64_t transferred = 0;
  for (auto& value : src.missing_for(dst.stored_ids())) {
    dst.apply(std::move(value));
    ++transferred;
  }
  return transferred;
}

void AntiEntropySystem::run_round(AntiEntropyMetrics& metrics) {
  const auto online = churn_->online().online_peers();
  if (online.size() >= 2) {
    for (const common::PeerId peer : online) {
      common::PeerId partner = peer;
      while (partner == peer) {
        partner = online[rng_.pick_index(online.size())];
      }
      ++metrics.sync_sessions;
      metrics.values_transferred += reconcile(peer, partner);
      if (config_.push_pull) {
        metrics.values_transferred += reconcile(partner, peer);
      }
    }
  }
  churn_->advance(rng_);
  ++metrics.rounds;
}

double AntiEntropySystem::aware_fraction() const {
  if (seeded_summary_.empty()) return 0.0;
  std::size_t aware = 0;
  for (const auto& store : stores_) {
    if (seeded_summary_.covered_by(store.summary())) ++aware;
  }
  return static_cast<double>(aware) / static_cast<double>(stores_.size());
}

AntiEntropyMetrics AntiEntropySystem::propagate_until_consistent(
    common::Round max_rounds) {
  const auto online = churn_->online().online_peers();
  UPDP2P_ENSURE(!online.empty(), "no online peer to seed the update at");
  const common::PeerId seed_peer = online[rng_.pick_index(online.size())];

  version::LocalWriter writer(seed_peer, rng_.split());
  const auto value = writer.write(stores_[seed_peer.value()], "item", "v1", 0.0);
  seeded_summary_ = value.history;

  AntiEntropyMetrics metrics;
  while (metrics.rounds < max_rounds) {
    run_round(metrics);
    metrics.final_aware_fraction = aware_fraction();
    if (metrics.final_aware_fraction >= 1.0) break;
  }
  return metrics;
}

}  // namespace updp2p::baselines

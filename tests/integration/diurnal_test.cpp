// Integration: the hybrid protocol under day/night availability with stable
// per-peer habits (a hand-built TraceChurn schedule), publishing at night
// and checking that the day crowd catches up.
#include <gtest/gtest.h>

#include "analysis/forward_probability.hpp"
#include "churn/heterogeneous.hpp"
#include "sim/round_simulator.hpp"

namespace updp2p {
namespace {

using common::PeerId;

/// `periods` day/night cycles of `period` rounds, each night at the cycle's
/// boundaries and day in its middle half: ids below `night_online` are
/// online throughout, and the ids below `day_online` join them by day.
std::vector<std::vector<PeerId>> day_night_schedule(common::Round period,
                                                    common::Round periods,
                                                    std::uint32_t night_online,
                                                    std::uint32_t day_online) {
  std::vector<std::vector<PeerId>> schedule;
  for (common::Round t = 0; t < period * periods; ++t) {
    const common::Round phase = t % period;
    const bool day = phase >= period / 4 && phase < 3 * period / 4;
    const std::uint32_t online = day ? day_online : night_online;
    auto& round = schedule.emplace_back();
    for (std::uint32_t i = 0; i < online; ++i) round.emplace_back(i);
  }
  return schedule;
}

TEST(Diurnal, UpdatePublishedAtNightReachesTheDayCrowd) {
  constexpr std::size_t kPopulation = 600;
  constexpr common::Round kPeriod = 48;

  // 10% online at night, 50% by day; the other half never connects.
  auto schedule = day_night_schedule(kPeriod, 3, /*night_online=*/60,
                                     /*day_online=*/300);

  // Peers that never connect can never learn anything. Awareness is
  // measured against the ever-online population.
  std::vector<bool> ever_online(kPopulation, false);
  for (const auto& round : schedule) {
    for (const PeerId peer : round) ever_online[peer.value()] = true;
  }
  const auto reachable = static_cast<double>(
      std::count(ever_online.begin(), ever_online.end(), true));

  sim::RoundSimConfig config;
  config.population = kPopulation;
  config.gossip.estimated_total_replicas = kPopulation;
  config.gossip.fanout_fraction = 0.10;  // supercritical even at night
  config.gossip.forward_probability = analysis::pf_constant(1.0);
  config.gossip.pull.no_update_timeout = 8;
  config.max_rounds = 120;  // 2.5 day/night cycles
  config.quiescence_rounds = 3 * kPeriod;  // run the full window
  config.seed = 5;
  auto churn = std::make_unique<churn::TraceChurn>(kPopulation,
                                                   std::move(schedule));
  sim::RoundSimulator simulator(config, std::move(churn));

  // Round 0 is night (10% online): the hardest time to publish.
  const std::size_t night_online = simulator.churn().online_count();
  EXPECT_LT(night_online, kPopulation / 5);

  // Publish from a fixed online night-owl. (A randomly seeded initiator
  // can — with ~0.5% probability — draw a fanout set that misses every
  // online peer and die at round 0; that fragility is the paper's Fig 1a
  // point and is covered by bench/ablation_bimodal, not this test.)
  const auto initiator = simulator.churn().online().online_peers().front();
  const auto metrics = simulator.propagate_update(initiator);
  const auto id = [&simulator] {
    for (std::uint32_t i = 0; i < kPopulation; ++i) {
      if (const auto v = simulator.node(PeerId(i)).read("item")) return v->id;
    }
    return version::VersionId{};
  }();

  // After 2.5 day/night cycles the day crowd — most of whom were offline
  // at publish time — has been reached via push-at-night + pull-on-wake.
  std::size_t aware_total = 0;
  for (std::uint32_t i = 0; i < kPopulation; ++i) {
    if (simulator.node(PeerId(i)).knows_version(id)) ++aware_total;
  }
  EXPECT_GT(static_cast<double>(aware_total) / reachable, 0.85);
  EXPECT_GT(metrics.total_pull_messages(), 0u);
  // The run ends at midday: the day crowd online then is covered.
  EXPECT_GT(metrics.final_aware_fraction(), 0.9);
}

TEST(Diurnal, BackboneChurnIntegratesWithSimulator) {
  auto churn = churn::make_backbone_churn(400, 0.15, 0.95, 0.999, 0.15, 0.95);
  sim::RoundSimConfig config;
  config.population = 400;
  config.gossip.estimated_total_replicas = 400;
  config.gossip.fanout_fraction = 0.05;
  config.gossip.pull.no_update_timeout = 10;
  config.max_rounds = 60;
  config.quiescence_rounds = 80;
  config.seed = 6;
  sim::RoundSimulator simulator(config, std::move(churn));
  const auto metrics = simulator.propagate_update();
  // Mixed availability still converges among the online.
  EXPECT_GT(metrics.final_aware_fraction(), 0.85);
}

}  // namespace
}  // namespace updp2p

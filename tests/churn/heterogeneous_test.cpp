#include "churn/heterogeneous.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace updp2p::churn {
namespace {

using common::PeerId;
using common::StreamRng;

/// Stationary availability of a two-state peer: p_join / (p_join + 1 − σ).
double availability_of(const HeterogeneousChurn::PeerRates& r) {
  return r.p_join / (r.p_join + 1.0 - r.sigma);
}

TEST(HeterogeneousChurn, PerPeerRatesRespected) {
  std::vector<HeterogeneousChurn::PeerRates> rates(2);
  rates[0] = {1.0, 1.0, 1.0};  // always online
  rates[1] = {0.0, 0.0, 0.0};  // never online
  HeterogeneousChurn churn(std::move(rates));
  StreamRng rng(1);
  churn.reset(rng);
  for (int round = 0; round < 20; ++round) {
    EXPECT_TRUE(churn.is_online(PeerId(0)));
    EXPECT_FALSE(churn.is_online(PeerId(1)));
    churn.advance(rng);
  }
}

TEST(HeterogeneousChurn, LongRunMatchesStationaryPerClass) {
  auto churn = make_backbone_churn(4'000, 0.25, 0.9, 0.995, 0.1, 0.95);
  const double backbone_target = availability_of(churn->rates(PeerId(0)));
  const double flaky_target = availability_of(churn->rates(PeerId(1'000)));
  EXPECT_NEAR(backbone_target, 0.9, 1e-9);
  EXPECT_NEAR(flaky_target, 0.1, 1e-9);
  StreamRng rng(7);
  churn->reset(rng);
  common::RunningStats backbone_online, flaky_online;
  for (int round = 0; round < 300; ++round) {
    churn->advance(rng);
    std::size_t backbone = 0, flaky = 0;
    for (std::uint32_t i = 0; i < 4'000; ++i) {
      if (!churn->is_online(PeerId(i))) continue;
      (i < 1'000 ? backbone : flaky) += 1;
    }
    backbone_online.add(static_cast<double>(backbone) / 1'000.0);
    flaky_online.add(static_cast<double>(flaky) / 3'000.0);
  }
  EXPECT_NEAR(backbone_online.mean(), backbone_target, 0.03);
  EXPECT_NEAR(flaky_online.mean(), flaky_target, 0.03);
}

TEST(HeterogeneousChurn, BackboneGetsLowestIds) {
  auto churn = make_backbone_churn(100, 0.1, 0.95, 0.999, 0.2, 0.9);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_GT(churn->rates(PeerId(i)).initial_online_probability, 0.9);
  }
  for (std::uint32_t i = 10; i < 100; ++i) {
    EXPECT_LT(churn->rates(PeerId(i)).initial_online_probability, 0.5);
  }
}

TEST(HeterogeneousChurn, RejectsInvalidRates) {
  std::vector<HeterogeneousChurn::PeerRates> rates(1);
  rates[0].sigma = 1.5;
  EXPECT_DEATH(HeterogeneousChurn{std::move(rates)}, "sigma");
}

}  // namespace
}  // namespace updp2p::churn

#include "churn/heterogeneous.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace updp2p::churn {
namespace {

using common::PeerId;
using common::StreamRng;

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

TEST(HeterogeneousChurn, StationaryAvailabilityFormula) {
  std::vector<HeterogeneousChurn::PeerRates> rates(1);
  rates[0] = {0.5, 0.9, 0.1};  // a = 0.1 / (0.1 + 0.1) = 0.5
  HeterogeneousChurn churn(std::move(rates));
  EXPECT_NEAR(churn.stationary_availability(PeerId(0)), 0.5, 1e-12);
}

TEST(HeterogeneousChurn, LongRunMatchesStationaryPerClass) {
  auto churn = make_backbone_churn(4'000, 0.25, 0.9, 0.995, 0.1, 0.95);
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
  EXPECT_NEAR(backbone_online.mean(), 0.9, 0.03);
  EXPECT_NEAR(flaky_online.mean(), 0.1, 0.03);
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

TEST(DiurnalTrace, AvailabilityOscillatesBetweenBounds) {
  DiurnalTraceGenerator generator(100, 24, 0.5, 0.1);
  double min_avail = 1.0, max_avail = 0.0;
  for (common::Round t = 0; t < 24; ++t) {
    const double a = generator.availability_at(t);
    EXPECT_GE(a, 0.1 - 1e-12);
    EXPECT_LE(a, 0.5 + 1e-12);
    min_avail = std::min(min_avail, a);
    max_avail = std::max(max_avail, a);
  }
  EXPECT_NEAR(min_avail, 0.1, 1e-6);   // trough at period boundary
  EXPECT_NEAR(max_avail, 0.5, 0.01);   // peak mid-period
}

TEST(DiurnalTrace, PeriodRepeats) {
  DiurnalTraceGenerator generator(100, 24, 0.6, 0.2);
  EXPECT_DOUBLE_EQ(generator.availability_at(3), generator.availability_at(27));
}

TEST(DiurnalTrace, GeneratedScheduleTracksWave) {
  DiurnalTraceGenerator generator(2'000, 48, 0.5, 0.1);
  const auto schedule = generator.generate(48, /*seed=*/3);
  ASSERT_EQ(schedule.size(), 48u);
  for (common::Round t = 0; t < 48; ++t) {
    const double target = generator.availability_at(t);
    const double actual =
        static_cast<double>(schedule[t].size()) / 2'000.0;
    EXPECT_NEAR(actual, target, 0.05) << "round " << t;
  }
}

TEST(DiurnalTrace, HabitsAreStable) {
  // A peer online at the trough stays online at every higher-availability
  // round (threshold semantics).
  DiurnalTraceGenerator generator(500, 24, 0.6, 0.2);
  const auto schedule = generator.generate(24, 9);
  std::vector<bool> online_at_trough(500, false);
  for (const PeerId p : schedule[0]) online_at_trough[p.value()] = true;
  // Round 12 is the peak; everyone from the trough must still be there.
  std::vector<bool> online_at_peak(500, false);
  for (const PeerId p : schedule[12]) online_at_peak[p.value()] = true;
  for (std::size_t i = 0; i < 500; ++i) {
    if (online_at_trough[i]) {
      EXPECT_TRUE(online_at_peak[i]) << i;
    }
  }
}

TEST(DiurnalTrace, DeterministicPerSeed) {
  DiurnalTraceGenerator generator(100, 24, 0.5, 0.1);
  const auto a = generator.generate(10, 42);
  const auto b = generator.generate(10, 42);
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) EXPECT_EQ(a[t], b[t]);
  const auto c = generator.generate(10, 43);
  bool any_difference = false;
  for (std::size_t t = 0; t < a.size() && !any_difference; ++t) {
    any_difference = a[t] != c[t];
  }
  EXPECT_TRUE(any_difference);
}

TEST(DiurnalTrace, WorksWithTraceChurn) {
  DiurnalTraceGenerator generator(200, 24, 0.5, 0.1);
  TraceChurn churn(200, generator.generate(48, 5));
  StreamRng rng(1);
  churn.reset(rng);
  const auto trough = churn.online_count();
  for (int t = 0; t < 12; ++t) churn.advance(rng);
  const auto peak = churn.online_count();
  EXPECT_GT(peak, trough);
}

}  // namespace
}  // namespace updp2p::churn

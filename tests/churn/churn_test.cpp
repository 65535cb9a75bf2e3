#include "churn/churn_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "churn/heterogeneous.hpp"
#include "common/stats.hpp"

namespace updp2p::churn {
namespace {

using common::PeerId;
using common::StreamRng;

/// Stationary availability of a two-state peer: p_join / (p_join + 1 − σ).
double availability_of(const HeterogeneousChurn::PeerRates& r) {
  return r.p_join / (r.p_join + 1.0 - r.sigma);
}

TEST(OnlineSet, CountsTransitions) {
  OnlineSet set(4);
  EXPECT_EQ(set.online_count(), 0u);
  set.set(PeerId(0), true);
  set.set(PeerId(2), true);
  EXPECT_EQ(set.online_count(), 2u);
  set.set(PeerId(0), true);  // idempotent
  EXPECT_EQ(set.online_count(), 2u);
  set.set(PeerId(0), false);
  EXPECT_EQ(set.online_count(), 1u);
  EXPECT_FALSE(set.is_online(PeerId(0)));
  EXPECT_TRUE(set.is_online(PeerId(2)));
}

TEST(OnlineSet, FractionAndPeers) {
  OnlineSet set(10);
  set.set(PeerId(3), true);
  set.set(PeerId(7), true);
  EXPECT_DOUBLE_EQ(set.online_fraction(), 0.2);
  const auto peers = set.online_peers();
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0], PeerId(3));
  EXPECT_EQ(peers[1], PeerId(7));
}

TEST(StaticChurn, ExactInitialFraction) {
  // Static churn is BernoulliChurn with σ = 1, p_j = 0: the fixed
  // population of Fig. 5. Advancing keeps the same peers online and
  // consumes no draw.
  BernoulliChurn churn(1'000, 0.25, 1.0, 0.0);
  StreamRng rng(1);
  churn.reset(rng);
  EXPECT_EQ(churn.online_count(), 250u);
  const auto before = churn.online().online_peers();
  StreamRng untouched = rng;
  churn.advance(rng);
  EXPECT_EQ(churn.online().online_peers(), before);
  EXPECT_EQ(rng(), untouched());
}

TEST(StaticChurn, AllAndNoneExtremes) {
  StreamRng rng(1);
  BernoulliChurn all(100, 1.0, 1.0, 0.0);
  all.reset(rng);
  EXPECT_EQ(all.online_count(), 100u);
  BernoulliChurn none(100, 0.0, 1.0, 0.0);
  none.reset(rng);
  EXPECT_EQ(none.online_count(), 0u);
}

TEST(BernoulliChurn, InitialFractionRespected) {
  BernoulliChurn churn(1'000, 0.10, 0.95, 0.0);
  StreamRng rng(2);
  churn.reset(rng);
  EXPECT_EQ(churn.online_count(), 100u);
}

TEST(BernoulliChurn, NoRejoinsMonotonicallyShrinks) {
  BernoulliChurn churn(2'000, 0.5, 0.9, 0.0);
  StreamRng rng(3);
  churn.reset(rng);
  std::size_t previous = churn.online_count();
  for (int round = 0; round < 10; ++round) {
    churn.advance(rng);
    EXPECT_LE(churn.online_count(), previous);
    previous = churn.online_count();
  }
  // After 10 rounds at sigma=0.9: expect ~0.5 * 0.9^10 ≈ 0.174.
  EXPECT_NEAR(static_cast<double>(previous) / 2'000.0, 0.5 * std::pow(0.9, 10),
              0.05);
}

TEST(BernoulliChurn, StationaryFractionFormula) {
  BernoulliChurn churn(100, 0.5, 0.9, 0.1);
  EXPECT_NEAR(churn.stationary_fraction(), 0.5, 1e-12);
  BernoulliChurn skewed(100, 0.5, 0.95, 0.05);
  EXPECT_NEAR(skewed.stationary_fraction(), 0.5, 1e-12);
  BernoulliChurn low(100, 0.5, 0.9, 0.0);
  EXPECT_EQ(low.stationary_fraction(), 0.0);
}

TEST(BernoulliChurn, ConvergesToStationaryFraction) {
  BernoulliChurn churn(20'000, 0.9, 0.95, 0.0125);
  // stationary = 0.0125 / (0.0125 + 0.05) = 0.2
  StreamRng rng(4);
  churn.reset(rng);
  for (int round = 0; round < 200; ++round) churn.advance(rng);
  EXPECT_NEAR(churn.online().online_fraction(), 0.2, 0.02);
}

TEST(SessionChurn, AvailabilityFromSessionLengths) {
  const auto churn =
      make_session_churn(10'000, /*mean_online=*/10.0, /*mean_offline=*/40.0);
  const auto& rates = churn->rates(PeerId(9'999));
  EXPECT_NEAR(rates.sigma, 0.9, 1e-12);
  EXPECT_NEAR(rates.p_join, 0.025, 1e-12);
  EXPECT_NEAR(availability_of(churn->rates(PeerId(0))), 0.2, 1e-9);
  StreamRng rng(5);
  churn->reset(rng);
  EXPECT_NEAR(churn->online().online_fraction(), 0.2, 0.02);
  common::RunningStats fraction;
  for (int round = 0; round < 100; ++round) {
    churn->advance(rng);
    fraction.add(churn->online().online_fraction());
  }
  EXPECT_NEAR(fraction.mean(), 0.2, 0.02);
  EXPECT_DEATH((void)make_session_churn(10, 0.5, 40.0), "at least one round");
  EXPECT_DEATH((void)make_session_churn(10, 10.0, 0.5), "at least one round");
}

TEST(TraceChurn, ReplaysSchedule) {
  std::vector<std::vector<PeerId>> schedule{
      {PeerId(0), PeerId(1)}, {PeerId(2)}, {}};
  TraceChurn churn(4, schedule);
  StreamRng rng(1);
  churn.reset(rng);
  EXPECT_TRUE(churn.is_online(PeerId(0)));
  EXPECT_TRUE(churn.is_online(PeerId(1)));
  EXPECT_FALSE(churn.is_online(PeerId(2)));
  churn.advance(rng);
  EXPECT_EQ(churn.online_count(), 1u);
  EXPECT_TRUE(churn.is_online(PeerId(2)));
  churn.advance(rng);
  EXPECT_EQ(churn.online_count(), 0u);
  // Past the schedule end: repeats last round.
  churn.advance(rng);
  EXPECT_EQ(churn.online_count(), 0u);
  // Reset rewinds.
  churn.reset(rng);
  EXPECT_EQ(churn.online_count(), 2u);
}

TEST(SessionProcess, StationaryStartFrequency) {
  SessionProcess process(25.0, 75.0);  // 25% availability
  EXPECT_NEAR(process.availability(), 0.25, 1e-12);
  StreamRng rng(6);
  int online = 0;
  constexpr int kTrials = 20'000;
  for (int i = 0; i < kTrials; ++i) {
    const auto [is_online, t] = process.start(rng);
    if (is_online) ++online;
    EXPECT_GT(t, 0.0);
  }
  EXPECT_NEAR(static_cast<double>(online) / kTrials, 0.25, 0.01);
}

TEST(SessionProcess, TransitionTimesMatchMeans) {
  SessionProcess process(10.0, 40.0);
  StreamRng rng(7);
  common::RunningStats online_sessions, offline_sessions;
  for (int i = 0; i < 20'000; ++i) {
    online_sessions.add(process.next_transition(rng, true, 0.0));
    offline_sessions.add(process.next_transition(rng, false, 0.0));
  }
  EXPECT_NEAR(online_sessions.mean(), 10.0, 0.3);
  EXPECT_NEAR(offline_sessions.mean(), 40.0, 1.0);
}

TEST(SessionProcess, TransitionIsInFuture) {
  SessionProcess process(10.0, 40.0);
  StreamRng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GT(process.next_transition(rng, true, 123.0), 123.0);
  }
}

TEST(SessionProcess, StreamRngSessionsArePinned) {
  // Sessions draw through the shared distribution mixin, so a per-peer
  // StreamRng purpose (LoopbackCluster's source) yields a fixed
  // sequence, and common::Rng callers keep drawing what they always drew.
  const SessionProcess process(10.0, 30.0);
  common::StreamRng stream(77, 3, 0x5E55);
  auto [online, at] = process.start(stream);
  std::vector<double> times{at};
  for (int i = 0; i < 3; ++i) {
    online = !online;
    at = process.next_transition(stream, online, at);
    times.push_back(at);
  }
  EXPECT_TRUE(online);
  EXPECT_DOUBLE_EQ(times[0], 1.5843530533008032);
  EXPECT_DOUBLE_EQ(times[1], 12.806787603593147);
  EXPECT_DOUBLE_EQ(times[2], 25.212093654093422);
  EXPECT_DOUBLE_EQ(times[3], 34.413878124285368);

  common::Rng rng(77);
  const auto [rng_online, rng_first] = process.start(rng);
  EXPECT_FALSE(rng_online);
  EXPECT_DOUBLE_EQ(rng_first, 44.491833469402209);
}

// Availability sweep: session churn's long-run fraction tracks the target.
class SessionAvailabilitySweep : public ::testing::TestWithParam<double> {};

TEST_P(SessionAvailabilitySweep, LongRunFractionMatches) {
  const double availability = GetParam();
  const double mean_online = 10.0;
  const double mean_offline = mean_online * (1.0 - availability) / availability;
  const auto churn =
      make_session_churn(5'000, mean_online, std::max(1.0, mean_offline));
  StreamRng rng(99);
  churn->reset(rng);
  common::RunningStats fraction;
  for (int round = 0; round < 150; ++round) {
    churn->advance(rng);
    fraction.add(churn->online().online_fraction());
  }
  EXPECT_NEAR(fraction.mean(), availability_of(churn->rates(PeerId(0))),
              0.03);
}

INSTANTIATE_TEST_SUITE_P(Availabilities, SessionAvailabilitySweep,
                         ::testing::Values(0.1, 0.2, 0.3, 0.5, 0.9));

}  // namespace
}  // namespace updp2p::churn

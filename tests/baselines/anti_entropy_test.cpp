#include "baselines/anti_entropy.hpp"

#include <gtest/gtest.h>

#include "churn/heterogeneous.hpp"
#include "common/stats.hpp"

namespace updp2p::baselines {
namespace {

std::unique_ptr<churn::ChurnModel> full_availability(std::size_t population) {
  return std::make_unique<churn::BernoulliChurn>(population, 1.0, 1.0, 0.0);
}

TEST(AntiEntropy, ConvergesWithEveryoneOnline) {
  AntiEntropyConfig config;
  config.population = 50;
  config.seed = 1;
  AntiEntropySystem system(config, full_availability(50));
  const auto metrics = system.propagate_until_consistent(100);
  EXPECT_DOUBLE_EQ(metrics.final_aware_fraction, 1.0);
  EXPECT_GT(metrics.rounds, 0u);
  EXPECT_LT(metrics.rounds, 30u);  // O(log N) epidemic spread
  EXPECT_GE(metrics.values_transferred, 49u);  // each peer got it once
}

TEST(AntiEntropy, PushPullConvergesFasterThanPull) {
  common::RunningStats pull_rounds, pushpull_rounds;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    AntiEntropyConfig config;
    config.population = 100;
    config.seed = seed;
    config.push_pull = false;
    AntiEntropySystem pull_system(config, full_availability(100));
    pull_rounds.add(static_cast<double>(
        pull_system.propagate_until_consistent(200).rounds));
    config.push_pull = true;
    AntiEntropySystem pushpull_system(config, full_availability(100));
    pushpull_rounds.add(static_cast<double>(
        pushpull_system.propagate_until_consistent(200).rounds));
  }
  EXPECT_LT(pushpull_rounds.mean(), pull_rounds.mean());
}

TEST(AntiEntropy, ConvergesUnderChurn) {
  AntiEntropyConfig config;
  config.population = 80;
  config.seed = 3;
  auto churn = churn::make_session_churn(80, 10.0, 20.0);
  AntiEntropySystem system(config, std::move(churn));
  const auto metrics = system.propagate_until_consistent(400);
  // With churn, convergence among ALL peers (incl. currently offline ones)
  // still happens because offline peers sync when they return.
  EXPECT_GT(metrics.final_aware_fraction, 0.99);
}

TEST(AntiEntropy, AwareFractionBeforeSeedIsZero) {
  AntiEntropyConfig config;
  config.population = 10;
  AntiEntropySystem system(config, full_availability(10));
  EXPECT_DOUBLE_EQ(system.aware_fraction(), 0.0);
}

TEST(AntiEntropy, StoreAccessor) {
  AntiEntropyConfig config;
  config.population = 10;
  AntiEntropySystem system(config, full_availability(10));
  (void)system.propagate_until_consistent(50);
  std::size_t holding = 0;
  for (std::uint32_t i = 0; i < 10; ++i) {
    if (system.store(common::PeerId(i)).read("item").has_value()) ++holding;
  }
  EXPECT_EQ(holding, 10u);
}

}  // namespace
}  // namespace updp2p::baselines

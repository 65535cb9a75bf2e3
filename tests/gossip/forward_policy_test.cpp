#include "gossip/forward_policy.hpp"

#include <gtest/gtest.h>

namespace updp2p::gossip {
namespace {

GossipConfig base_config() {
  GossipConfig config;
  config.forward_probability = analysis::pf_geometric(0.9);
  return config;
}

TEST(ForwardDecider, FollowsScheduleWithoutSelfTuning) {
  auto config = base_config();
  config.self_tuning = false;
  ForwardDecider decider(config);
  EXPECT_DOUBLE_EQ(decider.probability(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(decider.probability(1, 0.0), 0.9);
  // Without self-tuning the list fraction is ignored.
  EXPECT_DOUBLE_EQ(decider.probability(1, 0.8), 0.9);
}

TEST(ForwardDecider, SelfTuningProbabilityIgnoresListCoverage) {
  // The two §6 signals are split: duplicates tune PF, list coverage tunes
  // the fanout. PF must not shrink with the list alone.
  auto config = base_config();
  config.self_tuning = true;
  config.forward_probability = analysis::pf_constant(1.0);
  ForwardDecider decider(config);
  EXPECT_DOUBLE_EQ(decider.probability(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(decider.probability(0, 0.9), 1.0);
}

TEST(ForwardDecider, SelfTuningRespectsFloor) {
  auto config = base_config();
  config.self_tuning = true;
  config.min_forward_probability = 0.05;
  config.duplicate_damping = 0.01;
  config.forward_probability = analysis::pf_constant(1.0);
  ForwardDecider decider(config);
  for (int i = 0; i < 200; ++i) decider.observe_push(true);
  EXPECT_GE(decider.probability(0, 0.0), 0.05);
  EXPECT_LE(decider.probability(0, 0.0), 0.06);
}

TEST(ForwardDecider, DuplicatesDampenProbability) {
  auto config = base_config();
  config.self_tuning = true;
  config.duplicate_damping = 0.5;
  config.forward_probability = analysis::pf_constant(1.0);
  ForwardDecider decider(config);
  const double before = decider.probability(0, 0.0);
  for (int i = 0; i < 20; ++i) decider.observe_push(/*duplicate=*/true);
  const double after = decider.probability(0, 0.0);
  EXPECT_LT(after, before);
  EXPECT_GT(decider.duplicate_rate(), 0.5);
}

TEST(ForwardDecider, FreshPushesRecoverTheRate) {
  auto config = base_config();
  config.self_tuning = true;
  ForwardDecider decider(config);
  for (int i = 0; i < 20; ++i) decider.observe_push(true);
  const double high = decider.duplicate_rate();
  for (int i = 0; i < 40; ++i) decider.observe_push(false);
  EXPECT_LT(decider.duplicate_rate(), high * 0.1);
}

TEST(ForwardDecider, ShouldForwardMatchesProbabilityStatistically) {
  auto config = base_config();
  config.forward_probability = analysis::pf_constant(0.3);
  ForwardDecider decider(config);
  common::StreamRng rng(5);
  int forwards = 0;
  constexpr int kTrials = 50'000;
  for (int i = 0; i < kTrials; ++i) {
    if (decider.should_forward(rng, 0, 0.0)) ++forwards;
  }
  EXPECT_NEAR(static_cast<double>(forwards) / kTrials, 0.3, 0.01);
}

TEST(ForwardDecider, EffectiveFanoutPassthroughWithoutSelfTuning) {
  auto config = base_config();
  config.self_tuning = false;
  ForwardDecider decider(config);
  for (int i = 0; i < 20; ++i) decider.observe_push(true);
  EXPECT_EQ(decider.effective_fanout(10, 0.9), 10u);
}

TEST(ForwardDecider, EffectiveFanoutShrinksWithListCoverage) {
  auto config = base_config();
  config.self_tuning = true;
  ForwardDecider decider(config);
  EXPECT_EQ(decider.effective_fanout(10, 0.0), 10u);
  EXPECT_EQ(decider.effective_fanout(10, 0.5), 5u);
  EXPECT_EQ(decider.effective_fanout(10, 1.0), 1u);  // floor at 1
}

TEST(ForwardDecider, EffectiveFanoutUnaffectedByDuplicates) {
  // Duplicates gate PF, not the fanout (split-signal design).
  auto config = base_config();
  config.self_tuning = true;
  config.duplicate_damping = 0.5;
  ForwardDecider decider(config);
  for (int i = 0; i < 30; ++i) decider.observe_push(true);
  EXPECT_EQ(decider.effective_fanout(20, 0.0), 20u);
}

TEST(ForwardDecider, FanoutOfOneNeverShrinks) {
  auto config = base_config();
  config.self_tuning = true;
  ForwardDecider decider(config);
  EXPECT_EQ(decider.effective_fanout(1, 0.99), 1u);
}

TEST(ForwardDecider, ClampsScheduleOutput) {
  auto config = base_config();
  config.forward_probability =
      analysis::PfSchedule{"crazy", [](common::Round) { return 7.0; }};
  ForwardDecider decider(config);
  EXPECT_DOUBLE_EQ(decider.probability(0, 0.0), 1.0);
}

}  // namespace
}  // namespace updp2p::gossip

#include "sim/round_simulator.hpp"

#include <gtest/gtest.h>

namespace updp2p::sim {
namespace {

using common::PeerId;

RoundSimConfig base_config(std::size_t population = 200) {
  RoundSimConfig config;
  config.population = population;
  config.gossip.estimated_total_replicas = population;
  config.gossip.fanout_fraction = 0.05;
  config.gossip.forward_probability = analysis::pf_constant(1.0);
  config.seed = 12345;
  return config;
}

TEST(RoundSimulator, FullyOnlineFloodReachesEveryone) {
  auto config = base_config();
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 1.0, 1.0);
  const auto metrics = simulator->propagate_update();
  EXPECT_DOUBLE_EQ(metrics.final_aware_fraction(), 1.0);
  EXPECT_EQ(metrics.initial_online, 200u);
  EXPECT_GT(metrics.total_push_messages(), 0u);
}

TEST(RoundSimulator, AwarenessIsMonotoneWithoutChurn) {
  auto simulator = make_push_phase_simulator(base_config(), 0.5, 1.0);
  const auto metrics = simulator->propagate_update();
  std::size_t previous = 0;
  for (const auto& round : metrics.rounds) {
    EXPECT_GE(round.aware_online, previous) << "round " << round.round;
    previous = round.aware_online;
  }
}

TEST(RoundSimulator, DeterministicForSameSeed) {
  auto a = make_push_phase_simulator(base_config(), 0.3, 0.95);
  auto b = make_push_phase_simulator(base_config(), 0.3, 0.95);
  const auto ma = a->propagate_update();
  const auto mb = b->propagate_update();
  EXPECT_EQ(ma.total_push_messages(), mb.total_push_messages());
  EXPECT_EQ(ma.final_aware_fraction(), mb.final_aware_fraction());
  EXPECT_EQ(ma.rounds.size(), mb.rounds.size());
}

TEST(RoundSimulator, DifferentSeedsDiffer) {
  auto config_a = base_config();
  config_a.seed = 1;
  auto config_b = base_config();
  config_b.seed = 2;
  auto a = make_push_phase_simulator(config_a, 0.3, 0.95);
  auto b = make_push_phase_simulator(config_b, 0.3, 0.95);
  EXPECT_NE(a->propagate_update().total_push_messages(),
            b->propagate_update().total_push_messages());
}

TEST(RoundSimulator, InitiatorMustBeOnline) {
  auto config = base_config(50);
  auto churn = std::make_unique<churn::TraceChurn>(
      50, std::vector<std::vector<PeerId>>{{PeerId(0), PeerId(1)}});
  RoundSimulator simulator(config, std::move(churn));
  EXPECT_DEATH((void)simulator.propagate_update(PeerId(5)), "online");
}

TEST(RoundSimulator, NoListMeansMoreDuplicates) {
  auto with_list = base_config();
  with_list.gossip.partial_list.mode = gossip::PartialListMode::kUnbounded;
  with_list.reconnect_pull = false;
  with_list.round_timers = false;
  auto without_list = with_list;
  without_list.gossip.partial_list.mode = gossip::PartialListMode::kNone;

  auto a = make_push_phase_simulator(with_list, 0.5, 1.0);
  auto b = make_push_phase_simulator(without_list, 0.5, 1.0);
  const auto ma = a->propagate_update();
  const auto mb = b->propagate_update();
  EXPECT_LT(ma.total_push_messages(), mb.total_push_messages());
  EXPECT_NEAR(ma.final_aware_fraction(), mb.final_aware_fraction(), 0.05);
}

TEST(RoundSimulator, OfflinePeersCatchUpViaPullOnReconnect) {
  auto config = base_config(200);
  config.gossip.fanout_fraction = 0.08;  // supercritical at 30% online
  config.gossip.pull.contacts_per_attempt = 3;
  config.gossip.pull.no_update_timeout = 1'000;  // only reconnect pulls
  config.reconnect_pull = true;
  config.round_timers = true;
  config.max_rounds = 80;
  config.quiescence_rounds = 100;  // don't stop early; run the full window
  // 30% online initially; offline peers come online at 2% per round.
  auto churn =
      std::make_unique<churn::BernoulliChurn>(200, 0.30, 0.995, 0.02);
  RoundSimulator simulator(config, std::move(churn));
  const auto metrics = simulator.propagate_update();
  EXPECT_GT(metrics.total_pull_messages(), 0u);
  // Nearly all *currently online* peers know the update at the end,
  // including those that were offline during the push.
  EXPECT_GT(metrics.final_aware_fraction(), 0.9);
}

TEST(RoundSimulator, RunRoundsAdvancesTime) {
  auto simulator = make_push_phase_simulator(base_config(), 0.5, 1.0);
  const auto before = simulator->current_round();
  simulator->run_rounds(5);
  EXPECT_EQ(simulator->current_round(), before + 5);
}

TEST(RoundSimulator, SmallInitialViewStillSpreads) {
  auto config = base_config(300);
  config.initial_view_size = 30;  // partial membership knowledge (§2)
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 1.0, 1.0);
  const auto metrics = simulator->propagate_update();
  EXPECT_GT(metrics.final_aware_fraction(), 0.95);
}

TEST(RoundSimulator, MessageLossSlowsButRarelyStopsSpread) {
  auto config = base_config();
  config.message_loss = 0.3;
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 1.0, 1.0);
  const auto metrics = simulator->propagate_update();
  EXPECT_GT(metrics.final_aware_fraction(), 0.9);
  EXPECT_GT(simulator->bus_stats().messages_dropped, 0u);
}

TEST(RoundSimulator, BusStatsConsistent) {
  auto config = base_config();
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 0.4, 0.95);
  (void)simulator->propagate_update();
  const auto& stats = simulator->bus_stats();
  EXPECT_EQ(stats.messages_sent, stats.messages_delivered +
                                     stats.messages_to_offline +
                                     stats.messages_dropped +
                                     simulator->population() * 0);
  EXPECT_GT(stats.messages_to_offline, 0u);  // 60% offline targets exist
  EXPECT_GT(stats.bytes_sent, 0u);
}

TEST(RoundSimulator, TrackedAwarenessMatchesNodeState) {
  auto config = base_config(100);
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 1.0, 1.0);
  (void)simulator->propagate_update(PeerId(3), "k", "v");
  const auto value = simulator->node(PeerId(3)).read("k");
  ASSERT_TRUE(value.has_value());
  // Probabilistic guarantee: nearly everyone, and the two accessors agree.
  EXPECT_GT(simulator->aware_fraction(value->id), 0.9);
  EXPECT_EQ(simulator->aware_online(value->id),
            static_cast<std::size_t>(
                simulator->aware_fraction(value->id) * 100.0 + 0.5));
  // Cross-check against node state directly.
  std::size_t aware = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    if (simulator->node(PeerId(i)).knows_version(value->id)) ++aware;
  }
  EXPECT_EQ(simulator->aware_online(value->id), aware);
}

TEST(RoundSimulator, ConcurrentKeysPropagateIndependently) {
  auto config = base_config(200);
  config.reconnect_pull = false;
  config.round_timers = false;
  auto simulator = make_push_phase_simulator(config, 1.0, 1.0);
  const auto first = simulator->propagate_update(PeerId(0), "alpha", "a1");
  const auto second = simulator->propagate_update(PeerId(1), "beta", "b1");
  EXPECT_GT(first.final_aware_fraction(), 0.9);
  EXPECT_GT(second.final_aware_fraction(), 0.9);
  // Both keys readable at an arbitrary peer.
  const auto& node = simulator->node(PeerId(100));
  EXPECT_TRUE(node.read("alpha").has_value());
  EXPECT_TRUE(node.read("beta").has_value());
}

TEST(RoundSimulator, RunMetricsCountTheBusSends) {
  // Every message the run's metrics count is one bus send, charged the
  // length of its run's frame: pushes under churn, acks, loss and the
  // periodic pulls of round timers. Reconnect pulls are left out, because
  // the metrics do not count the sends of the churn phase.
  constexpr std::size_t kPeers = 200;
  auto config = base_config(kPeers);
  config.reconnect_pull = false;
  config.gossip.acks.enabled = true;
  config.gossip.pull.no_update_timeout = 3;
  config.message_loss = 0.05;
  config.max_rounds = 40;
  RoundSimulator simulator(config, std::make_unique<churn::BernoulliChurn>(
                                       kPeers, 0.30, 0.995, 0.02));
  const RunMetrics metrics = simulator.propagate_update();
  const net::BusStats bus = simulator.bus_stats();
  std::uint64_t acks = 0;
  for (const RoundMetrics& round : metrics.rounds) acks += round.ack_messages;
  EXPECT_GT(acks, 0u);
  EXPECT_GT(metrics.total_pull_messages(), 0u);
  EXPECT_GT(bus.messages_dropped, 0u);
  EXPECT_EQ(metrics.total_messages(), bus.messages_sent);
  EXPECT_EQ(metrics.total_bytes(), bus.bytes_sent);
}

TEST(RoundSimulator, RejectsMismatchedChurnPopulation) {
  auto config = base_config(100);
  EXPECT_DEATH(
      RoundSimulator(config, std::make_unique<churn::BernoulliChurn>(
                                 50, 0.5, 1.0, 0.0)),
      "population");
}

}  // namespace
}  // namespace updp2p::sim

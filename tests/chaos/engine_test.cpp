// Chaos engine: property checks over the builtin corpus, bit-identical
// replay digests, and sweep thread-count invariance.
#include "chaos/engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "chaos/scenarios.hpp"
#include "net/latency.hpp"
#include "runtime/loopback_cluster.hpp"

namespace updp2p::chaos {
namespace {

std::string test_root(const std::string& leaf) {
  return ::testing::TempDir() + "updp2p-chaos-test-" + leaf;
}

Scenario load(const std::string& name) {
  auto scenario = find_scenario(name);
  EXPECT_TRUE(scenario.has_value()) << name;
  return *scenario;
}

TEST(ChaosEngine, CorpusPassesPropertyChecksAcrossSeeds) {
  const std::vector<std::uint64_t> seeds{1, 7, 15, 42};
  for (const Scenario& scenario : builtin_scenarios()) {
    ChaosOptions options;
    options.data_root = test_root("corpus-" + scenario.name);
    for (const std::uint64_t seed : seeds) {
      const ChaosReport report = run_scenario(scenario, seed, options);
      EXPECT_TRUE(report.passed())
          << scenario.name << " seed " << seed << ": "
          << (report.violations.empty() ? "" : report.violations.front());
      EXPECT_EQ(report.phases, scenario.phases.size());
    }
  }
}

TEST(ChaosEngine, SameSeedReplaysBitIdentically) {
  const Scenario scenario = load("combined-storm");
  ChaosOptions options;
  options.data_root = test_root("replay");
  const ChaosReport first = run_scenario(scenario, 7, options);
  const ChaosReport second = run_scenario(scenario, 7, options);
  EXPECT_EQ(first.trace_digest.to_hex(), second.trace_digest.to_hex());
  EXPECT_EQ(first.violations, second.violations);
  EXPECT_EQ(first.published, second.published);
  EXPECT_EQ(first.network.datagrams_delivered,
            second.network.datagrams_delivered);
  EXPECT_EQ(first.injector.partition_drops, second.injector.partition_drops);
  EXPECT_EQ(first.trace, second.trace);
}

TEST(ChaosEngine, DifferentSeedsDiverge) {
  const Scenario scenario = load("combined-storm");
  ChaosOptions options;
  options.data_root = test_root("diverge");
  const ChaosReport a = run_scenario(scenario, 1, options);
  const ChaosReport b = run_scenario(scenario, 2, options);
  EXPECT_NE(a.trace_digest.to_hex(), b.trace_digest.to_hex());
}

TEST(ChaosEngine, SweepDigestsInvariantAcrossThreadCounts) {
  const Scenario scenario = load("kill-restart-durable");
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4, 5, 6, 7, 8};
  ChaosOptions serial_options;
  serial_options.data_root = test_root("sweep-serial");
  serial_options.keep_trace = false;
  ChaosOptions threaded_options;
  threaded_options.data_root = test_root("sweep-threaded");
  threaded_options.keep_trace = false;

  const auto serial = run_seed_sweep(scenario, seeds, serial_options, 1);
  const auto threaded = run_seed_sweep(scenario, seeds, threaded_options, 8);
  ASSERT_EQ(serial.size(), seeds.size());
  ASSERT_EQ(threaded.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(serial[i].seed, seeds[i]);
    EXPECT_EQ(serial[i].trace_digest.to_hex(),
              threaded[i].trace_digest.to_hex())
        << "seed " << seeds[i];
    EXPECT_EQ(serial[i].violations, threaded[i].violations);
  }
}

TEST(ChaosEngine, PartitionActuallyDropsCrossGroupTraffic) {
  const Scenario scenario = load("partition-heal");
  ChaosOptions options;
  options.data_root = test_root("partition");
  const ChaosReport report = run_scenario(scenario, 7, options);
  EXPECT_TRUE(report.passed());
  EXPECT_GT(report.injector.partition_drops, 0u);
  EXPECT_EQ(report.network.dropped_policy,
            report.injector.partition_drops + report.injector.loss_drops +
                report.injector.mutation_drops);
}

TEST(ChaosEngine, DuplicateWindowFansOutCopies) {
  const Scenario scenario = load("duplicate-reorder");
  ChaosOptions options;
  options.data_root = test_root("dup");
  const ChaosReport report = run_scenario(scenario, 7, options);
  EXPECT_TRUE(report.passed());
  EXPECT_GT(report.injector.duplicated, 0u);
  EXPECT_GT(report.injector.delayed, 0u);
  EXPECT_EQ(report.network.datagrams_duplicated, report.injector.duplicated);
}

TEST(ChaosEngine, ChurnDropsOfflineTrafficAndRecovers) {
  const Scenario scenario = load("churn-burst");
  ChaosOptions options;
  options.data_root = test_root("churn");
  const ChaosReport report = run_scenario(scenario, 7, options);
  EXPECT_TRUE(report.passed());
  EXPECT_GT(report.network.dropped_offline, 0u);
  EXPECT_EQ(report.published, 2u);
}

TEST(ChaosEngine, KillRestartTracksLifecycles) {
  const Scenario scenario = load("kill-restart-durable");
  ChaosOptions options;
  options.data_root = test_root("killrestart");
  const ChaosReport report = run_scenario(scenario, 7, options);
  EXPECT_TRUE(report.passed());
  ASSERT_EQ(report.peers.size(), scenario.population);
  EXPECT_EQ(report.peers[1].restarts, 1u);
  EXPECT_EQ(report.peers[2].restarts, 1u);
  EXPECT_EQ(report.peers[1].wipes, 0u);
  for (const PeerSummary& peer : report.peers) {
    EXPECT_TRUE(peer.alive);
    EXPECT_TRUE(peer.online);
  }
  // Everyone converged: every live peer ends on the same content digest.
  for (const PeerSummary& peer : report.peers) {
    EXPECT_EQ(peer.state.to_hex(), report.peers[0].state.to_hex());
  }
}

TEST(ChaosEngine, WipedPeerRefillsFromPeersInsteadOfDisk) {
  const Scenario scenario = load("kill-restart-wiped");
  ChaosOptions options;
  options.data_root = test_root("wiped");
  const ChaosReport report = run_scenario(scenario, 7, options);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.peers[1].wipes, 1u);
  EXPECT_EQ(report.peers[1].state.to_hex(), report.peers[0].state.to_hex());
}

TEST(ChaosEngine, PublishOnDeadPeerIsABenignSkip) {
  std::string error;
  const auto scenario = parse_scenario(
      "population 4\n"
      "phase 1\n"
      "  offline 0\n"
      "  publish 0 ghost\n"
      "  publish 1 real\n"
      "phase 12\n"
      "  heal\n"
      "  online 0\n",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  ChaosOptions options;
  options.data_root = test_root("deadpublish");
  const ChaosReport report = run_scenario(*scenario, 3, options);
  // The offline publish must not count, must not create a tracked update,
  // and must not fail the run.
  EXPECT_TRUE(report.passed())
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.published, 1u);
}

TEST(ChaosEngine, MutationIsPartOfTheReplayIdentity) {
  const Scenario scenario = load("canary-pull-recovery");
  ChaosOptions clean_options;
  clean_options.data_root = test_root("mut-clean");
  ChaosOptions mutated_options;
  mutated_options.data_root = test_root("mut-broken");
  mutated_options.mutation = Mutation::kDropPullResponses;
  const ChaosReport clean = run_scenario(scenario, 3, clean_options);
  const ChaosReport mutated = run_scenario(scenario, 3, mutated_options);
  EXPECT_TRUE(clean.passed());
  EXPECT_FALSE(mutated.passed());
  EXPECT_NE(clean.trace_digest.to_hex(), mutated.trace_digest.to_hex());
  EXPECT_GT(mutated.injector.mutation_drops, 0u);
  EXPECT_EQ(clean.injector.mutation_drops, 0u);
}

TEST(ChaosEngine, OverwrittenVersionCountsAsDeliveredByItsSuccessor) {
  // Peers 5-9 miss alpha and its overwrite; pull ships them only the
  // overwrite, which dominates the first version. Eventual delivery must
  // accept that (without the dominance rule several of these seeds report
  // the superseded alpha as never delivered), yet still fire when pull
  // responses are dropped and the returning peers learn nothing.
  const Scenario scenario = load("overwrite-while-offline");
  ChaosOptions clean_options;
  clean_options.data_root = test_root("overwrite-clean");
  ChaosOptions mutated_options;
  mutated_options.data_root = test_root("overwrite-broken");
  mutated_options.mutation = Mutation::kDropPullResponses;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ChaosReport clean = run_scenario(scenario, seed, clean_options);
    EXPECT_TRUE(clean.passed())
        << "seed " << seed << ": "
        << (clean.violations.empty() ? "" : clean.violations.front());
    EXPECT_EQ(clean.published, 2u);
    const ChaosReport mutated = run_scenario(scenario, seed, mutated_options);
    EXPECT_FALSE(mutated.passed()) << "seed " << seed;
  }
}

TEST(ChaosEngine, NoFaultRunIsALoopbackRun) {
  // With only publish ops, the harness adds nothing to the cluster it
  // drives: the same settings stepped directly on a LoopbackCluster end in
  // the same per-peer content and the same runtime counters, exactly.
  std::string error;
  const auto scenario = parse_scenario(
      "name no-fault\n"
      "population 8\n"
      "round 0.25\n"
      "loss 0.1\n"
      "latency 0.02 0.15\n"
      "phase 2\n"
      "  publish 0 alpha\n"
      "  publish 5 beta\n"
      "phase 3\n"
      "  publish 3 gamma\n"
      "phase 20\n",
      &error);
  ASSERT_TRUE(scenario.has_value()) << error;
  constexpr std::uint64_t kSeed = 11;
  const ChaosReport report = run_scenario(*scenario, kSeed, ChaosOptions{});
  ASSERT_TRUE(report.passed()) << report.violations.front();
  ASSERT_EQ(report.published, 3u);

  runtime::LoopbackClusterConfig config;
  config.population = scenario->population;
  config.runtime.gossip.fanout_fraction = scenario->fanout;
  config.runtime.gossip.estimated_total_replicas = scenario->population;
  config.runtime.gossip.acks.enabled = scenario->acks;
  config.runtime.retry.max_attempts = scenario->retry_attempts;
  config.runtime.retry.initial_timeout = scenario->retry_initial;
  config.runtime.round_duration = scenario->round;
  config.runtime.tick_duration = scenario->tick;
  config.runtime.seed = kSeed;
  config.network.loss_probability = scenario->base_loss;
  config.network.latency = std::make_shared<net::UniformLatency>(
      scenario->latency_lo, scenario->latency_hi);
  runtime::LoopbackCluster cluster(config);
  std::size_t published = 0;
  for (const Phase& phase : scenario->phases) {
    for (const Op& op : phase.ops) {
      // The engine's deterministic payload: key, publish count, seed.
      ASSERT_TRUE(cluster
                      .publish(op.peer, op.key,
                               op.key + "#" + std::to_string(published++) +
                                   "@" + std::to_string(kSeed))
                      .has_value());
    }
    cluster.run_until(cluster.now() + phase.duration, scenario->tick);
  }

  for (std::uint32_t i = 0; i < scenario->population; ++i) {
    EXPECT_EQ(report.peers[i].state,
              cluster.peer(common::PeerId(i)).node().store().content_digest())
        << "peer " << i;
  }
  // RuntimeStats is all u64 counters: compare every field at once.
  static_assert(
      std::has_unique_object_representations_v<runtime::RuntimeStats>);
  const runtime::RuntimeStats totals = cluster.totals();
  EXPECT_EQ(std::memcmp(&report.totals, &totals, sizeof totals), 0);
  EXPECT_GT(totals.retransmits, 0u);  // the lossy links did real work
  EXPECT_EQ(report.network.datagrams_delivered,
            cluster.network().stats().datagrams_delivered);
}

}  // namespace
}  // namespace updp2p::chaos

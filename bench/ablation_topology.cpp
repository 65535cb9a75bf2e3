// Ablation: topology knowledge under churn (paper §7.2).
//
// "The directional gossiping approach [20] exploits knowledge of the
// logical connectivity/topology … Unfortunately, this approach cannot be
// applied in the scenarios we address because replicas go online/offline
// frequently which changes the topology considerably so that topological
// knowledge cannot be exploited."
//
// Experiment: every peer is given perfect topology knowledge at time 0 —
// its fixed push-target set is drawn from the peers online *right now*
// (what a directional scheme would maintain). An update propagated
// immediately benefits enormously (every target online). As session churn
// rotates the online population, the knowledge rots; updates propagated
// later do no better than blind random choice — and lose random choice's
// per-push re-roll diversity. Re-learning the topology every churn period
// would cost exactly the maintenance traffic the paper avoids.
#include <iostream>

#include "analysis/forward_probability.hpp"
#include "bench_util.hpp"
#include "churn/heterogeneous.hpp"
#include "sim/round_simulator.hpp"

using namespace updp2p;

namespace {

constexpr std::size_t kPopulation = 1'000;
constexpr std::size_t kFanout = 12;
constexpr double kAvailability = 0.30;

std::unique_ptr<sim::RoundSimulator> make_simulator(
    gossip::TargetSelection selection, std::uint64_t seed) {
  sim::RoundSimConfig config;
  config.population = kPopulation;
  config.gossip.estimated_total_replicas = kPopulation;
  config.gossip.fanout_fraction =
      static_cast<double>(kFanout) / kPopulation;
  config.gossip.forward_probability = analysis::pf_constant(1.0);
  config.gossip.target_selection = selection;
  config.gossip.pull.no_update_timeout = 1'000'000;  // isolate the push
  config.reconnect_pull = false;
  config.round_timers = false;
  config.seed = seed;
  // Session churn with ~30% stationary availability; mean online session
  // 20 rounds, offline ~47 rounds.
  auto churn = churn::make_session_churn(kPopulation, 20.0,
                                         20.0 / kAvailability - 20.0);
  auto simulator =
      std::make_unique<sim::RoundSimulator>(config, std::move(churn));

  if (selection == gossip::TargetSelection::kFixedNeighbors) {
    // Perfect topology snapshot at time 0: each peer's fixed set is drawn
    // from the currently-online population.
    common::StreamRng rng(seed ^ 0xD1);
    const auto online = simulator->churn().online().online_peers();
    for (std::uint32_t i = 0; i < kPopulation; ++i) {
      std::vector<common::PeerId> fixed;
      fixed.reserve(kFanout);
      for (const std::uint32_t idx : rng.sample_without_replacement(
               static_cast<std::uint32_t>(online.size()), kFanout)) {
        fixed.push_back(online[idx]);
      }
      simulator->node(common::PeerId(i)).seed_fixed_neighbors(fixed);
    }
  }
  return simulator;
}

void run(common::TextTable& table, gossip::TargetSelection selection,
         common::Round delay) {
  common::RunningStats aware, msgs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto simulator = make_simulator(selection, 9'000 + seed);
    simulator->run_rounds(delay);  // let churn rotate the population
    const auto metrics = simulator->propagate_update();
    aware.add(metrics.final_aware_fraction());
    msgs.add(metrics.messages_per_initial_online());
  }
  table.row()
      .cell(selection == gossip::TargetSelection::kRandomPerPush
                ? "random per push (paper)"
                : "fixed set from t=0 topology")
      .cell(static_cast<std::size_t>(delay))
      .cell(aware.mean(), 4)
      .cell(aware.stddev(), 4)
      .cell(msgs.mean(), 2);
}

}  // namespace

int main() {
  bench::print_banner(
      "Ablation — topology knowledge rots under churn (§7.2)",
      "1000 peers, 30% availability (session churn, ~20-round sessions), "
      "fanout 12, PF=1; update published after a delay; 8 seeds");

  common::TextTable table(
      "push coverage vs age of the topology snapshot");
  table.header({"target selection", "publish delay (rounds)", "F_aware",
                "F_aware sd", "msgs/online peer"});
  for (const common::Round delay : {0u, 10u, 40u, 120u}) {
    run(table, gossip::TargetSelection::kFixedNeighbors, delay);
  }
  run(table, gossip::TargetSelection::kRandomPerPush, 0);
  run(table, gossip::TargetSelection::kRandomPerPush, 120);
  table.print(std::cout);
  std::cout
      << "  fresh topology knowledge beats blind random (targets all\n"
      << "  online), but after ~1-2 session lengths it decays to (or\n"
      << "  below) the random baseline — maintaining it would cost the\n"
      << "  very traffic the paper's scheme avoids (§7.2).\n";
  return 0;
}

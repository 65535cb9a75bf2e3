// Reproduces Fig. 5: scalability of the push scheme for total populations
// R = 10^4 .. 10^8 with R_on/R = 0.1, σ = 1, PF(t) = 0.8·0.7^t + 0.2 and
// f_r chosen such that each push expects to reach ten online peers
// (R·f_r = 100, so R_on·f_r = 10).
//
// Paper's finding: messages per initially-online peer stay decently low
// (around 20 with proper fanout) and *decrease* as the population grows
// with fixed parameters.
//
// On top of the recurrences, this bench cross-checks the two populations
// that are feasible to *execute* (10^4 and 10^5) on the sharded round
// simulator — the protocol's state machines run for real, across one
// shard per hardware thread, and must land near the model's numbers.
#include <chrono>
#include <iostream>

#include "analysis/push_model.hpp"
#include "bench_util.hpp"
#include "sim/round_simulator.hpp"

using namespace updp2p;

int main() {
  bench::print_banner(
      "Figure 5 — scalability",
      "Setup: R_on/R=0.1, sigma=1, PF(t)=0.8*0.7^t+0.2, R*f_r=100 "
      "(10 online peers expected per push)");

  std::vector<common::Series> series;
  common::TextTable summary("Fig. 5 summary");
  summary.header(
      {"total population R", "msgs/R_on[0]", "final F_aware", "rounds(99%)"});
  for (const double total : {1e4, 1e5, 1e6, 1e7, 1e8}) {
    analysis::PushModelParams params;
    params.total_replicas = total;
    params.initial_online = 0.1 * total;
    params.sigma = 1.0;
    params.fanout_fraction = 100.0 / total;
    params.pf = analysis::pf_offset_geometric(0.8, 0.7, 0.2);
    const auto trajectory = analysis::evaluate_push(params);
    char label[64];
    std::snprintf(label, sizeof label, "Total population: %.0e", total);
    series.push_back(trajectory.to_series(label));
    summary.row()
        .cell(label)
        .cell(trajectory.messages_per_initial_online(), 3)
        .cell(trajectory.final_aware(), 4)
        .cell(static_cast<std::size_t>(trajectory.rounds_to_fraction(0.99)));
  }
  bench::print_series("Fig. 5: messages vs awareness for each population",
                      series);
  summary.print(std::cout);
  std::cout << "  paper: ~20 msgs per initially-online peer, decreasing with"
            << " increasing population (fixed parameters).\n";

  // Executable cross-check on the sharded round engine. 10^6+ replicas
  // are model-only (the paper evaluated recurrences there too); at 10^4
  // and 10^5 we run the real protocol. Views bootstrap with a partial
  // random sample (the name-dropper regime) instead of the model's full
  // membership. Full views would share the bootstrap set's bitmap chunks
  // and cost little memory; the partial views keep this table comparable
  // with earlier runs. Fanout still expects R*f_r = 100 pushes per
  // forward. Results are bit-identical at any
  // shard/thread count (GoldenDeterminism.ShardInvariance), so the
  // thread count below only changes wall-clock, never the numbers.
  common::TextTable check("Fig. 5 cross-check — sharded round simulator");
  check.header({"total population R", "shards", "msgs/R_on[0]",
                "final F_aware", "rounds", "wall ms"});
  for (const std::size_t total : {std::size_t{10'000}, std::size_t{100'000}}) {
    sim::RoundSimConfig config;
    config.population = total;
    config.gossip.estimated_total_replicas = total;
    config.gossip.fanout_fraction = 100.0 / static_cast<double>(total);
    config.gossip.forward_probability =
        analysis::pf_offset_geometric(0.8, 0.7, 0.2);
    config.initial_view_size = total >= 100'000 ? 500 : 1'000;
    config.reconnect_pull = false;
    config.round_timers = false;
    config.seed = 5;
    config.shard_threads = 0;  // one shard per hardware thread
    auto simulator = sim::make_push_phase_simulator(config,
                                                    /*online=*/0.1,
                                                    /*sigma=*/1.0);
    const auto start = std::chrono::steady_clock::now();
    const auto metrics = simulator->propagate_update();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    check.row()
        .cell("R = " + std::to_string(total))
        .cell(static_cast<std::size_t>(simulator->shard_count()))
        .cell(metrics.messages_per_initial_online(), 3)
        .cell(metrics.final_aware_fraction(), 4)
        .cell(metrics.rounds.size())
        .cell(wall_ms, 1);
  }
  check.print(std::cout);
  std::cout << "  simulation executes the real state machines; expect the\n"
            << "  same order of magnitude as the model rows above — lower\n"
            << "  coverage at 10^5 is the partial-view bootstrap (500-peer\n"
            << "  views vs the model's full membership assumption).\n";
  return 0;
}

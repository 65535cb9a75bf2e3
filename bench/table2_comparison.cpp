// Reproduces Table 2: total messages per initially-online peer and push
// rounds (latency) for Gnutella-style flooding, flooding with the partial
// list, Haas et al.'s GOSSIP1(0.8, 2) and the paper's scheme with
// geometrically decaying PF(t).
//
// Paper-reported values:
//   Setting A ("whole population online", fanout 4):
//       Gnutella 4 / 7 rounds; Partial List 3.92 / 7; Haas G(0.8,2)
//       3.136 / 7; Our Scheme 2.215 / 8.
//   Setting B ("1/10 of a smaller group online", fanout 40):
//       Gnutella 40 / 5; Partial List 35.22 / 5; Haas G(0.8,2) 28.49 / 5;
//       Our Scheme 16.35 / 6.
//
// Some Table 2 parameters are typographically corrupted in the available
// text; we use the nearest self-consistent setting (A: R = R_on = 10^4,
// fanout 4; B: R = 10^3, R_on = 10^2, fanout 40 — both with σ = 1) and the
// PF decay base that reproduces the reported cost. Both the analytical
// model and an independent protocol simulation are reported.
#include <iostream>

#include "analysis/push_model.hpp"
#include "bench_util.hpp"
#include "sim/round_simulator.hpp"

using namespace updp2p;

namespace {

struct SchemeSpec {
  std::string name;
  analysis::PfSchedule pf;
  bool partial_list;
  double paper_msgs;
  unsigned paper_rounds;
};

struct Setting {
  std::string title;
  double total;
  double online;
  std::size_t fanout;
  double our_pf_base;
};

void run_setting(const Setting& setting) {
  const std::vector<SchemeSpec> schemes = {
      {"Gnutella", analysis::pf_constant(1.0), false,
       setting.total >= 10'000 ? 4.0 : 40.0,
       setting.total >= 10'000 ? 7u : 5u},
      {"Using Partial List", analysis::pf_constant(1.0), true,
       setting.total >= 10'000 ? 3.92 : 35.22,
       setting.total >= 10'000 ? 7u : 5u},
      {"Haas et al. G(0.8,2)", analysis::pf_haas(0.8, 2), false,
       setting.total >= 10'000 ? 3.136 : 28.49,
       setting.total >= 10'000 ? 7u : 5u},
      {"Our Scheme PF(t)=" + common::format_double(setting.our_pf_base, 2) +
           "^t",
       analysis::pf_geometric(setting.our_pf_base), true,
       setting.total >= 10'000 ? 2.215 : 16.35,
       setting.total >= 10'000 ? 8u : 6u},
  };

  common::TextTable table(setting.title);
  table.header({"Scheme", "model msgs/peer", "model rounds", "sim msgs/peer",
                "sim rounds", "sim F_aware", "paper msgs", "paper rounds"});

  for (const auto& scheme : schemes) {
    // Analytical model.
    analysis::PushModelParams params;
    params.total_replicas = setting.total;
    params.initial_online = setting.online;
    params.sigma = 1.0;
    params.fanout_fraction =
        static_cast<double>(setting.fanout) / setting.total;
    params.pf = scheme.pf;
    params.use_partial_list = scheme.partial_list;
    const auto trajectory = analysis::evaluate_push(params);

    // Independent protocol simulation (averaged over a few seeds).
    sim::AggregateMetrics aggregate;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      sim::RoundSimConfig config;
      config.population = static_cast<std::size_t>(setting.total);
      config.gossip.estimated_total_replicas = config.population;
      config.gossip.fanout_fraction = params.fanout_fraction;
      config.gossip.forward_probability = scheme.pf;
      config.gossip.partial_list.mode =
          scheme.partial_list ? gossip::PartialListMode::kUnbounded
                              : gossip::PartialListMode::kNone;
      config.initial_view_size = std::min<std::size_t>(
          config.population, 1'000);  // partial knowledge (paper §2)
      config.reconnect_pull = false;  // isolate the push phase
      config.round_timers = false;
      config.seed = seed * 7919;
      auto simulator = sim::make_push_phase_simulator(
          config, setting.online / setting.total, /*sigma=*/1.0);
      aggregate.add(simulator->propagate_update());
    }

    table.row()
        .cell(scheme.name)
        .cell(trajectory.messages_per_initial_online(), 3)
        .cell(static_cast<std::size_t>(trajectory.rounds_to_fraction(0.99)))
        .cell(aggregate.messages_per_initial_online.mean(), 3)
        .cell(aggregate.rounds_to_quiescence.mean(), 1)
        .cell(aggregate.final_aware_fraction.mean(), 4)
        .cell(scheme.paper_msgs, 3)
        .cell(static_cast<std::size_t>(scheme.paper_rounds));
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::print_banner(
      "Table 2 — comparison with Gnutella, partial-list flooding and "
      "Haas et al.",
      "Metric: total push messages per initially-online peer; latency in "
      "push rounds");

  run_setting(Setting{"Setting A: R_on/R = 10^4/10^4 (all online), fanout 4",
                      10'000.0, 10'000.0, 4, 0.95});
  run_setting(Setting{"Setting B: R_on/R = 10^2/10^3 (10% online), fanout 40",
                      1'000.0, 100.0, 40, 0.85});

  std::cout
      << "  paper: partial list < Gnutella; Haas cuts another ~25%; our\n"
      << "  scheme is dramatically cheaper at the cost of ~1 extra round.\n";
  return 0;
}

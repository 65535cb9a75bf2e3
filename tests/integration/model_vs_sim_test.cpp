// Cross-validation: the analytical recurrences (src/analysis) against the
// executable protocol (src/gossip driven by src/sim). These are independent
// implementations, so agreement is evidence both transcribe §4.2 correctly.
#include <gtest/gtest.h>

#include <ostream>

#include "analysis/push_model.hpp"
#include "sim/round_simulator.hpp"

namespace updp2p {
namespace {

struct AgreementCase {
  const char* name;
  double online_fraction;
  double sigma;
  double fanout_fraction;
  bool partial_list;
  double pf_base;  // 1.0 = constant flooding
};

// gtest puts the printed parameter into the listed (and so ctest's) test
// name. The default print dumps the struct's bytes, whose `name` pointer and
// padding differ from process to process; print the case name instead.
void PrintTo(const AgreementCase& c, std::ostream* os) { *os << c.name; }

class ModelVsSim : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(ModelVsSim, MessagesAndAwarenessAgree) {
  const auto& c = GetParam();
  constexpr std::size_t kPopulation = 1'500;
  constexpr int kSeeds = 4;

  analysis::PushModelParams params;
  params.total_replicas = kPopulation;
  params.initial_online = c.online_fraction * kPopulation;
  params.sigma = c.sigma;
  params.fanout_fraction = c.fanout_fraction;
  params.pf = c.pf_base < 1.0 ? analysis::pf_geometric(c.pf_base)
                              : analysis::pf_constant(1.0);
  params.use_partial_list = c.partial_list;
  const auto model = analysis::evaluate_push(params);

  sim::AggregateMetrics aggregate;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    sim::RoundSimConfig config;
    config.population = kPopulation;
    config.gossip.estimated_total_replicas = kPopulation;
    config.gossip.fanout_fraction = c.fanout_fraction;
    config.gossip.forward_probability = params.pf;
    config.gossip.partial_list.mode =
        c.partial_list ? gossip::PartialListMode::kUnbounded
                       : gossip::PartialListMode::kNone;
    config.reconnect_pull = false;
    config.round_timers = false;
    config.seed = static_cast<std::uint64_t>(seed) * 1'000'003;
    auto simulator =
        sim::make_push_phase_simulator(config, c.online_fraction, c.sigma);
    aggregate.add(simulator->propagate_update());
  }

  const double model_msgs = model.messages_per_initial_online();
  const double sim_msgs = aggregate.messages_per_initial_online.mean();
  // 12% tolerance: the model is a mean-field approximation and the
  // simulation is stochastic with finite population.
  EXPECT_NEAR(sim_msgs / model_msgs, 1.0, 0.12) << c.name;
  EXPECT_NEAR(aggregate.final_aware_fraction.mean(), model.final_aware(),
              0.08)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ModelVsSim,
    ::testing::Values(
        AgreementCase{"flood_full_online", 1.0, 1.0, 0.02, true, 1.0},
        AgreementCase{"flood_20pct_online", 0.2, 1.0, 0.02, true, 1.0},
        AgreementCase{"flood_sigma95", 0.3, 0.95, 0.02, true, 1.0},
        AgreementCase{"no_list_20pct", 0.2, 1.0, 0.02, false, 1.0},
        AgreementCase{"decay_pf09", 0.3, 0.95, 0.02, true, 0.9}),
    [](const ::testing::TestParamInfo<AgreementCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace updp2p

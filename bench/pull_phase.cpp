// Pull-phase evaluation (§4.3, §6) — analytical success probabilities plus
// a continuous-time cluster of reconnecting peers (runtime::LoopbackCluster),
// eager vs lazy pull, and a Demers anti-entropy (pull-only) baseline.
#include <iostream>
#include <iterator>

#include "analysis/pull_model.hpp"
#include "baselines/anti_entropy.hpp"
#include "bench_util.hpp"
#include "churn/heterogeneous.hpp"
#include "runtime/loopback_cluster.hpp"

using namespace updp2p;

namespace {

void analytical_section() {
  common::TextTable table(
      "P(update obtained in n pull attempts), R = 1000 (Eq. of Section 4.3)");
  table.header({"R_on", "F_aware", "n=1", "n=2", "n=3", "n=5", "n for 99.9%"});
  struct Row {
    double online;
    double aware;
  };
  for (const Row row : {Row{100, 0.5}, Row{100, 1.0}, Row{300, 1.0},
                        Row{100, 0.1}, Row{500, 0.9}}) {
    auto p = [&row](unsigned n) {
      return analysis::pull_success_probability(row.online, row.aware, 1'000,
                                                n);
    };
    table.row()
        .cell(row.online, 0)
        .cell(row.aware, 2)
        .cell(p(1), 4)
        .cell(p(2), 4)
        .cell(p(3), 4)
        .cell(p(5), 4)
        .cell(static_cast<std::size_t>(analysis::pull_attempts_for_confidence(
            row.online, row.aware, 1'000, 0.999)));
  }
  table.print(std::cout);
  std::cout << "  paper: a constant number of pull attempts suffices whp.\n";
}

struct PullVariantResult {
  double pull_msgs_per_reconnect;
  double aware_total;
  double stale_reads;
};

PullVariantResult run_cluster(bool lazy, std::uint64_t seed) {
  runtime::LoopbackClusterConfig config;
  config.population = 400;
  config.sessions.emplace(40.0, 160.0);  // ~20% availability
  config.network.latency = std::make_shared<net::ConstantLatency>(0.5);
  config.runtime.round_duration = 1.0;
  // The measured protocol has no retransmission layer (see EXPERIMENTS.md).
  config.runtime.retry.max_attempts = 1;
  config.runtime.gossip.estimated_total_replicas = config.population;
  config.runtime.gossip.fanout_fraction = 0.05;
  config.runtime.gossip.forward_probability = analysis::pf_geometric(0.9);
  config.runtime.gossip.pull.lazy = lazy;
  config.runtime.gossip.pull.contacts_per_attempt = 3;
  config.runtime.gossip.pull.no_update_timeout = 50;
  config.runtime.seed = seed;
  runtime::LoopbackCluster cluster(config);

  // Periodic fresher versions keep the pull phase busy while churn cycles
  // peers through offline periods.
  struct Publish {
    double at;
    const char* payload;
  };
  constexpr Publish kPublishes[] = {{10.0, "v1"}, {120.0, "v2"}, {240.0, "v3"}};
  std::size_t next_publish = 0;
  std::optional<version::VersionId> newest;

  std::size_t stale = 0;
  constexpr std::size_t kProbes = 50;
  for (std::size_t i = 0; i < kProbes; ++i) {
    const double probe_at = 10.0 + static_cast<double>(i) * 7.0;
    for (; next_publish < std::size(kPublishes) &&
           kPublishes[next_publish].at <= probe_at;
         ++next_publish) {
      cluster.run_until(kPublishes[next_publish].at);
      if (const auto writer = cluster.pick_writer()) {
        if (auto id = cluster.publish(*writer, "doc",
                                      kPublishes[next_publish].payload)) {
          newest = id;
        }
      }
    }
    cluster.run_until(probe_at);
    const auto answer =
        cluster.query("doc", 3, gossip::QueryRule::kLatestVersion);
    // A read is stale when it misses the newest already-published version.
    if (newest && (!answer.has_value() || answer->id != *newest)) ++stale;
  }
  cluster.run_until(400.0);

  std::uint64_t pull_messages = 0;  // requests plus the responses they got
  for (std::size_t i = 0; i < cluster.population(); ++i) {
    const gossip::NodeStats& stats =
        cluster.peer(common::PeerId(static_cast<std::uint32_t>(i)))
            .node()
            .stats();
    pull_messages += stats.pull_requests_sent + stats.pull_requests_received;
  }
  PullVariantResult result;
  result.pull_msgs_per_reconnect =
      cluster.reconnects() == 0
          ? 0.0
          : static_cast<double>(pull_messages) /
                static_cast<double>(cluster.reconnects());
  result.aware_total =
      newest ? static_cast<double>(cluster.aware_count(*newest)) /
                   static_cast<double>(cluster.population())
             : 0.0;
  result.stale_reads =
      static_cast<double>(stale) / static_cast<double>(kProbes);
  return result;
}

void cluster_section() {
  common::TextTable table(
      "eager vs lazy pull under session churn (LoopbackCluster, 400 peers, "
      "~20% availability, 3 consecutive updates)");
  table.header({"pull mode", "pull msgs/reconnect", "final awareness (all)",
                "stale-read fraction"});
  for (const bool lazy : {false, true}) {
    common::RunningStats msgs, aware, stale;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto result = run_cluster(lazy, 500 + seed);
      msgs.add(result.pull_msgs_per_reconnect);
      aware.add(result.aware_total);
      stale.add(result.stale_reads);
    }
    table.row()
        .cell(lazy ? "lazy (§6)" : "eager (§3)")
        .cell(msgs.mean(), 2)
        .cell(aware.mean(), 4)
        .cell(stale.mean(), 4);
  }
  table.print(std::cout);
  std::cout << "  paper (§6): lazy pull saves the messages wasted finding an\n"
            << "  up-to-date online replica, at a query-freshness cost.\n";
}

void anti_entropy_section() {
  common::TextTable table(
      "pull-only anti-entropy baseline (Demers [9]): rounds & transfers to "
      "full consistency, 200 peers");
  table.header({"availability", "mode", "rounds", "sync sessions",
                "values moved", "final aware"});
  for (const double availability : {1.0, 0.3}) {
    for (const bool push_pull : {false, true}) {
      common::RunningStats rounds, sessions, values, aware;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        baselines::AntiEntropyConfig config;
        config.population = 200;
        config.push_pull = push_pull;
        config.seed = 900 + seed;
        auto churn = churn::make_session_churn(
            config.population, availability >= 1.0 ? 1e9 : 10.0,
            availability >= 1.0 ? 1.0 : 10.0 * (1.0 - availability) /
                                             availability);
        baselines::AntiEntropySystem system(config, std::move(churn));
        const auto metrics = system.propagate_until_consistent(200);
        rounds.add(static_cast<double>(metrics.rounds));
        sessions.add(static_cast<double>(metrics.sync_sessions));
        values.add(static_cast<double>(metrics.values_transferred));
        aware.add(metrics.final_aware_fraction);
      }
      table.row()
          .cell(availability, 2)
          .cell(push_pull ? "push-pull" : "pull")
          .cell(rounds.mean(), 1)
          .cell(sessions.mean(), 0)
          .cell(values.mean(), 0)
          .cell(aware.mean(), 4);
    }
  }
  table.print(std::cout);
  std::cout << "  anti-entropy converges without push but needs O(N log N)\n"
            << "  sync sessions per update — the hybrid's push phase does\n"
            << "  the bulk dissemination far cheaper.\n";
}

}  // namespace

int main() {
  bench::print_banner("Pull phase — Section 4.3 analysis, loopback cluster "
                      "and anti-entropy baseline",
                      "Hybrid push/pull vs pull-only reconciliation");
  analytical_section();
  cluster_section();
  anti_entropy_section();
  return 0;
}

// sim_push_10k: the paper-scale push phase in the RoundSimulator, in the
// BM_SimulatedUpdate10kWire configuration (10k replicas, 20 % online,
// sigma = 0.95, fanout 100, wire serialisation on) at one shard thread.
// Every update gets a fresh simulator built from its own seed, so each
// set-up is timed and each propagation is independent of the others. The
// number of updates follows from --seconds alone, so every count depends on
// the seed and not on the host's speed.
#include <algorithm>
#include <cmath>

#include "sim/round_simulator.hpp"
#include "workload.hpp"

namespace livebench {

namespace u = updp2p;

namespace {

constexpr std::size_t kPopulation = 10'000;
constexpr double kOnline = 0.2;
constexpr double kSigma = 0.95;
constexpr double kAwareQuorum = 0.99;
/// An update whose final F_aware stays under this has failed.
constexpr double kMinFinalAware = 0.95;
/// Updates per --seconds; one takes 100–220 ms (build, propagation and
/// bookkeeping) on a shared 2.1 GHz Xeon core, depending on the load other
/// tenants put on it.
constexpr double kUpdatesPerSecond = 4.5;

u::sim::RoundSimConfig config_for(std::uint64_t seed) {
  u::sim::RoundSimConfig config;
  config.population = kPopulation;
  config.gossip.estimated_total_replicas = kPopulation;
  config.gossip.fanout_fraction = 0.01;
  config.reconnect_pull = false;
  config.round_timers = false;
  config.serialize_messages = true;
  config.shard_threads = 1;
  config.seed = seed;
  return config;
}

/// Rounds until F_aware first reaches the quorum, interpolated linearly
/// within the round that crosses it; nullopt when it never does.
std::optional<double> rounds_to_quorum(const u::sim::RunMetrics& metrics) {
  double previous = 0.0;
  for (std::size_t r = 0; r < metrics.rounds.size(); ++r) {
    const double fraction = metrics.rounds[r].aware_fraction();
    if (fraction >= kAwareQuorum) {
      const double step = fraction - previous;
      const double within = step > 0.0 ? (kAwareQuorum - previous) / step : 1.0;
      return static_cast<double>(r) + within;
    }
    previous = fraction;
  }
  return std::nullopt;
}

std::vector<std::uint64_t> fingerprint_of(const u::sim::RunMetrics& metrics) {
  std::vector<std::uint64_t> words{metrics.initial_online};
  for (const u::sim::RoundMetrics& round : metrics.rounds) {
    words.insert(words.end(), {round.online, round.aware_online, round.messages,
                               round.duplicates, round.bytes});
  }
  return words;
}

}  // namespace

Report run_sim_push(const Options& options) {
  Report report("sim_push_10k");
  SpanRecorder recorder;
  TraceSegments segments;
  SpanRecorder* rec = nullptr;

  std::vector<double> setups;
  std::vector<double> aware_rounds;
  double propagate_s = 0.0;
  std::uint64_t updates = 0;
  std::uint64_t failed = 0;
  std::uint64_t messages = 0;
  std::uint64_t push_messages = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t bytes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t pushes_received = 0;
  std::uint64_t duplicate_pushes = 0;
  std::uint64_t pushes_forwarded = 0;
  double min_final = 1.0;
  std::vector<std::uint64_t> first_fingerprint;

  const auto total = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(kUpdatesPerSecond * options.seconds)));
  // Process CPU over every update: its simulator build, the propagation
  // and the bookkeeping.
  const double cpu_start = cpu_seconds();
  while (updates < total) {
    if (options.trace) {
      segments.switch_to(updates % 2 == 1, updates);
      rec = segments.traced() ? &recorder : nullptr;
    }
    const std::uint64_t seed = mix_seed(options.seed, 100 + updates);
    const std::int64_t setup_start = now_ns();
    auto simulator = u::sim::make_push_phase_simulator(config_for(seed), kOnline, kSigma);
    setups.push_back(static_cast<double>(now_ns() - setup_start) * 1e-9);

    const std::int64_t run_start = now_ns();
    u::sim::RunMetrics metrics;
    {
      ScopedSpan span(rec, SpanKind::kPropagate, 0);
      metrics = simulator->propagate_update();
    }
    propagate_s += static_cast<double>(now_ns() - run_start) * 1e-9;
    ++updates;

    {
      ScopedSpan span(rec, SpanKind::kCheck, 0);
      if (first_fingerprint.empty()) first_fingerprint = fingerprint_of(metrics);
      const double final_aware = metrics.final_aware_fraction();
      min_final = std::min(min_final, final_aware);
      const auto quorum = rounds_to_quorum(metrics);
      if (final_aware < kMinFinalAware || !quorum) {
        ++failed;
      } else {
        aware_rounds.push_back(*quorum);
      }
      messages += metrics.total_messages();
      push_messages += metrics.total_push_messages();
      duplicates += metrics.total_duplicates();
      bytes += metrics.total_bytes();
      rounds += metrics.rounds.size();
      for (std::uint32_t p = 0; p < kPopulation; ++p) {
        const u::gossip::NodeStats& stats = simulator->node(u::common::PeerId(p)).stats();
        pushes_received += stats.pushes_received;
        duplicate_pushes += stats.duplicate_pushes;
        pushes_forwarded += stats.pushes_forwarded;
      }
    }
  }
  if (options.trace) segments.close(updates);
  const double cpu = cpu_seconds() - cpu_start;
  // Before the determinism check builds another simulator.
  const double peak_rss = peak_rss_mb();

  // Determinism: the first update, propagated again from its seed, must
  // count exactly the same.
  {
    auto simulator = u::sim::make_push_phase_simulator(
        config_for(mix_seed(options.seed, 100)), kOnline, kSigma);
    const auto again = fingerprint_of(simulator->propagate_update());
    report.gate("deterministic", again == first_fingerprint,
                "first update re-propagated from its seed");
  }
  report.gate("final_aware", failed == 0,
              "lowest final F_aware " + format_number(min_final) +
                  ", threshold " + format_number(kMinFinalAware));

  const auto n = static_cast<double>(updates);
  report.operations(updates, failed);
  report.metric("setup_s", median(setups), "s", "median of " + std::to_string(setups.size()));
  report.timing("aware", aware_rounds, "rounds");
  report.metric("updates_per_s", n / propagate_s, "1/s", "per second of propagate_update");
  report.metric("msgs_per_s", static_cast<double>(messages) / propagate_s, "1/s",
                "per second of propagate_update");
  report.metric("cpu_us_per_update", cpu * 1e6 / n, "us");
  report.metric("msgs_per_update", static_cast<double>(messages) / n, "count");
  report.metric("bytes_per_update", static_cast<double>(bytes) / n, "B");
  report.metric("failed_frac", static_cast<double>(failed) / n, "ratio");
  report.metric("peak_rss_mb", peak_rss, "MB");

  report.metric("sim.round_ms", propagate_s * 1e3 / static_cast<double>(rounds), "ms");
  report.metric("sim.rounds_per_update", static_cast<double>(rounds) / n, "rounds");
  report.metric("sim.dup_frac",
                static_cast<double>(duplicates) / static_cast<double>(push_messages), "ratio");
  report.metric("sim.bytes_per_msg",
                static_cast<double>(bytes) / static_cast<double>(messages), "B");
  report.metric("gossip.node.dup_frac",
                static_cast<double>(duplicate_pushes) / static_cast<double>(pushes_received),
                "ratio");
  report.metric("gossip.node.forwards_per_first_receipt",
                static_cast<double>(pushes_forwarded) /
                    static_cast<double>(pushes_received - duplicate_pushes),
                "count");
  if (options.trace) {
    const SpanTotals& check = recorder.totals(SpanKind::kCheck);
    report.metric("driver.check_ns_per_step",
                  check.count ? static_cast<double>(check.total_ns) /
                                    static_cast<double>(check.count)
                              : 0.0,
                  "ns", "per update");
    report.metric("trace.overhead_ratio", segments.overhead_ratio(), "ratio",
                  "traced over untraced cpu_us_per_update");
    const std::string spans_path = options.out_dir + "/spans-sim_push_10k-" +
                                   std::to_string(options.seed) + ".tsv";
    report.info("spans", spans_path + (recorder.write_tsv(spans_path) ? "" : " (write failed)"));
  }
  return report;
}

}  // namespace livebench

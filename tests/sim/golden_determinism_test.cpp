// Golden-seed determinism suite.
//
// The hot-path work (dense peer sets, shared arenas, the sharded bus,
// incremental metrics, pooled sweeps) is pure mechanics: it must not
// change a single RNG draw or metric. These tests pin complete runs of
// the round simulator, the churned continuous-time cluster and a seed
// sweep to FNV-1a fingerprints. Any behavioural drift — a reordered sample, a skipped
// bernoulli draw, a different merge order — changes a fingerprint and
// fails loudly. The constants were re-captured when per-node RNGs moved
// to counter-based streams, again when sampling switched to pick-time
// rejection, and again when flooding lists moved to the compressed
// ChunkedPeerSet (views no longer keep an insertion-ordered member
// vector: sparse views rank-select in ascending-id order, dense views
// rejection-sample the id space directly, and a duplicate push no longer
// merges its flooding list — all three change which peers the same rolls
// land on. The bus's canonical (to, from, seq) delivery order — what
// ShardInvariance guards — was untouched). The in-memory fingerprints
// (PlainPushPhase, and the event-simulator golden that ChurnedCluster
// later replaced) were re-captured once more when message bytes switched
// from a heuristic wire-size model to the exact codec frame length: only
// the bytes words
// moved — message counts, awareness and RNG draws are pinned unchanged,
// and the serialize-mode goldens (FullFeatureRun, ShardInvariance), which
// always charged exact frame sizes, kept their constants across the
// zero-copy wire-path rewrite. The round-simulator goldens and the sweep
// aggregate were re-captured when the driver stream (bootstrap views,
// churn, publisher picks) and version-id nonces moved from the sequential
// xoshiro engine to StreamRng purposes; ChurnedCluster moved only in its
// `deleted` count (the cluster already drew from StreamRng, but version
// ids now come from a Philox stream: the remover's tombstone is concurrent
// with v1 and ties it on event count, so pick_winner's id tie-break decides
// which peers read the key as deleted). Since the simulator's in-memory
// mode was deleted, every round-simulator golden runs encoded frames; the
// configurations that used to run in memory (PlainPushPhase, the sweep
// aggregate) give the same constants on frames. Every bytes word is the
// length of the frames the bus carried.
//
// On top of the pinned single-thread goldens, ShardInvariance asserts the
// core promise of the sharded engine: the SAME fingerprint at 1, 2 and 8
// shard threads. Sharding may only change who executes the work, never
// what the work computes.
//
// If a future change *intentionally* alters protocol behaviour, re-capture
// the constants below from a build of that change (see docs/benchmarks.md,
// "Performance methodology").
#include "churn/churn_model.hpp"
#include "runtime/loopback_cluster.hpp"
#include "sim/round_simulator.hpp"
#include "sim/sweep.hpp"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

namespace updp2p {
namespace {

/// FNV-1a over explicit 64-bit words; doubles contribute their exact bits.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

std::uint64_t fingerprint(const sim::RunMetrics& metrics) {
  Fnv f;
  f.add(metrics.population);
  f.add(metrics.initial_online);
  f.add(metrics.rounds.size());
  for (const auto& r : metrics.rounds) {
    f.add(static_cast<std::uint64_t>(r.round));
    f.add(r.online);
    f.add(r.aware_online);
    f.add(r.messages);
    f.add(r.push_messages);
    f.add(r.pull_messages);
    f.add(r.ack_messages);
    f.add(r.query_messages);
    f.add(r.duplicates);
    f.add(r.bytes);
  }
  return f.h;
}

sim::RoundSimConfig plain_push_config() {
  sim::RoundSimConfig config;
  config.population = 400;
  config.gossip.estimated_total_replicas = 400;
  config.gossip.fanout_fraction = 0.02;
  config.reconnect_pull = false;
  config.round_timers = false;
  // Seed chosen for a live multi-round spread under the current draw
  // sequence. Blind pushing means ~6% of seeds die in round 0 (every
  // initial push lands on an offline peer — legitimate §4 behaviour, but a
  // dead run pins none of the forwarding machinery).
  config.seed = 7;
  return config;
}

TEST(GoldenDeterminism, PlainPushPhase) {
  auto simulator = sim::make_push_phase_simulator(plain_push_config(),
                                                  /*online=*/0.3,
                                                  /*sigma=*/0.95);
  const auto metrics = simulator->propagate_update();
  EXPECT_EQ(metrics.rounds.size(), 13u);
  EXPECT_EQ(metrics.total_messages(), 605u);
  EXPECT_DOUBLE_EQ(metrics.final_aware_fraction(), 0.86764705882352944);
  EXPECT_EQ(simulator->bus_stats().messages_sent, 605u);
  EXPECT_EQ(fingerprint(metrics), 11733962425386378597ULL);
}

TEST(GoldenDeterminism, FullFeatureRun) {
  // Exercises every hot path at once: self-tuning forwards, capped
  // kDropRandom flooding lists, acks with suppression and preferred
  // weighting, periodic pulls, partial initial views, the wire codec on
  // every message, random loss, and churn with rejoins.
  sim::RoundSimConfig config;
  config.population = 300;
  config.gossip.estimated_total_replicas = 300;
  config.gossip.fanout_fraction = 0.03;
  config.gossip.self_tuning = true;
  config.gossip.partial_list.mode = gossip::PartialListMode::kDropRandom;
  config.gossip.partial_list.max_entries = 64;
  config.gossip.acks.enabled = true;
  config.gossip.acks.suppression_rounds = 5;
  config.gossip.acks.preferred_weight = 3;
  config.gossip.pull.contacts_per_attempt = 2;
  config.gossip.pull.no_update_timeout = 8;
  config.initial_view_size = 25;
  config.message_loss = 0.05;
  config.max_rounds = 60;
  config.seed = 99;
  auto churn = std::make_unique<churn::BernoulliChurn>(300, 0.5, 0.95, 0.1);
  sim::RoundSimulator simulator(config, std::move(churn));

  const auto metrics = simulator.propagate_update();
  EXPECT_EQ(metrics.rounds.size(), 61u);
  EXPECT_EQ(metrics.total_messages(), 4999u);
  EXPECT_DOUBLE_EQ(metrics.final_aware_fraction(), 0.98947368421052628);
  EXPECT_EQ(simulator.bus_stats().messages_sent, 6297u);
  EXPECT_EQ(simulator.bus_stats().messages_delivered, 4318u);
  EXPECT_EQ(simulator.bus_stats().messages_dropped, 210u);
  EXPECT_EQ(fingerprint(metrics), 14564591808774351209ULL);
}

TEST(GoldenDeterminism, ChurnedCluster) {
  // The continuous-time cluster under sessions, lazy pull and views of 20:
  // real PeerRuntimes over the inproc switch, one publish then a remove.
  runtime::LoopbackClusterConfig config;
  config.population = 150;
  config.sessions.emplace(50.0, 150.0);
  config.initial_view_size = 20;
  config.network.latency = std::make_shared<net::ConstantLatency>(0.5);
  config.runtime.retry.max_attempts = 1;
  config.runtime.gossip.estimated_total_replicas = 150;
  config.runtime.gossip.fanout_fraction = 0.05;
  config.runtime.gossip.pull.lazy = true;
  config.runtime.seed = 77;
  runtime::LoopbackCluster cluster(config);
  cluster.run_until(1.0);
  const auto writer = cluster.pick_writer();
  ASSERT_TRUE(writer.has_value());
  const auto id = cluster.publish(*writer, "k1", "v1");
  ASSERT_TRUE(id.has_value());
  cluster.run_until(30.0);
  const auto remover = cluster.pick_writer();
  ASSERT_TRUE(remover.has_value());
  ASSERT_TRUE(cluster.peer(*remover).remove("k1"));
  cluster.run_until(120.0);

  const runtime::RuntimeStats totals = cluster.totals();
  const net::InprocNetworkStats& net = cluster.network().stats();
  std::size_t deleted = 0;
  for (std::uint32_t i = 0; i < 150; ++i) {
    if (cluster.peer(common::PeerId(i)).node().store().is_deleted("k1")) {
      ++deleted;
    }
  }
  EXPECT_EQ(totals.datagrams_out, 1131u);
  EXPECT_EQ(net.datagrams_delivered, 494u);
  EXPECT_EQ(cluster.online_count(), 45u);
  EXPECT_EQ(cluster.aware_count(*id), 57u);
  EXPECT_EQ(deleted, 65u);
  Fnv f;
  f.add(totals.datagrams_out);
  f.add(totals.datagrams_in);
  f.add(totals.dropped_while_offline);
  f.add(totals.rounds_ticked);
  f.add(totals.pull_response_bytes_in);
  f.add(net.datagrams_submitted);
  f.add(net.datagrams_delivered);
  f.add(net.dropped_offline);
  f.add(cluster.reconnects());
  f.add(static_cast<std::uint64_t>(cluster.online_count()));
  f.add(static_cast<std::uint64_t>(cluster.aware_count(*id)));
  f.add(static_cast<std::uint64_t>(deleted));
  EXPECT_EQ(f.h, 6604776943028110400ULL);
}

TEST(GoldenDeterminism, ShardInvariance) {
  // Bit-identical results at any shard/thread count: run the full-feature
  // configuration (loss, churn, codec, acks, pulls) at 1, 2 and 8 shard
  // threads and require identical fingerprints AND identical bus totals.
  const auto run = [](unsigned shard_threads) {
    sim::RoundSimConfig config;
    config.population = 300;
    config.gossip.estimated_total_replicas = 300;
    config.gossip.fanout_fraction = 0.03;
    config.gossip.self_tuning = true;
    config.gossip.partial_list.mode = gossip::PartialListMode::kDropRandom;
    config.gossip.partial_list.max_entries = 64;
    config.gossip.acks.enabled = true;
    config.gossip.acks.suppression_rounds = 5;
    config.gossip.acks.preferred_weight = 3;
    config.gossip.pull.contacts_per_attempt = 2;
    config.gossip.pull.no_update_timeout = 8;
    config.initial_view_size = 25;
    config.message_loss = 0.05;
    config.max_rounds = 60;
    config.seed = 99;
    config.shard_threads = shard_threads;
    auto churn = std::make_unique<churn::BernoulliChurn>(300, 0.5, 0.95, 0.1);
    sim::RoundSimulator simulator(config, std::move(churn));
    const auto metrics = simulator.propagate_update();
    if (shard_threads == 1) {
      // The sequential sharded run must reproduce the *pinned*
      // FullFeatureRun behaviour, not merely a self-consistent one.
      EXPECT_EQ(fingerprint(metrics), 14564591808774351209ULL);
    }
    Fnv f;
    f.add(fingerprint(metrics));
    f.add(simulator.bus_stats().messages_sent);
    f.add(simulator.bus_stats().messages_delivered);
    f.add(simulator.bus_stats().messages_dropped);
    f.add(simulator.bus_stats().messages_to_offline);
    f.add(simulator.bus_stats().bytes_sent);
    return f.h;
  };

  const std::uint64_t sequential = run(1);
  EXPECT_EQ(run(2), sequential);
  EXPECT_EQ(run(8), sequential);
}

TEST(GoldenDeterminism, SharedFullViews) {
  // Full bootstrap views above one chunk's array limit: at 5 000 replicas
  // every view is a bitmap, and every view adopts the bootstrap set's one
  // buffer instead of copying it. No other golden runs full views above
  // kArrayChunkMax. The push phase runs with §6 acks and suppression,
  // capped drop-random flooding lists, the wire codec, loss and churn with
  // rejoins, and must give the same results at 1, 2 and 8 shard threads.
  // The constants were captured while every view still held a private
  // copy of the bitmap: sharing it may not move a single draw.
  const auto run = [](unsigned shard_threads) {
    sim::RoundSimConfig config;
    config.population = 5'000;
    config.gossip.estimated_total_replicas = 5'000;
    config.gossip.fanout_fraction = 0.004;
    config.gossip.acks.enabled = true;
    config.gossip.acks.suppression_rounds = 4;
    config.gossip.partial_list.mode = gossip::PartialListMode::kDropRandom;
    config.gossip.partial_list.max_entries = 200;
    config.reconnect_pull = false;
    config.round_timers = false;
    config.message_loss = 0.02;
    config.max_rounds = 16;
    config.seed = 31;
    config.shard_threads = shard_threads;
    auto churn =
        std::make_unique<churn::BernoulliChurn>(5'000, 0.2, 0.95, 0.1);
    sim::RoundSimulator simulator(config, std::move(churn));
    const auto metrics = simulator.propagate_update();
    EXPECT_EQ(metrics.rounds.size(), 17u);
    EXPECT_EQ(metrics.total_messages(), 80063u);
    EXPECT_DOUBLE_EQ(metrics.final_aware_fraction(), 0.94598913390859696);
    EXPECT_EQ(simulator.bus_stats().messages_sent, 80063u);
    EXPECT_EQ(simulator.bus_stats().bytes_sent, 14947096u);
    EXPECT_EQ(fingerprint(metrics), 5093847278969579222ULL);
  };
  run(1);
  run(2);
  run(8);
}

TEST(GoldenDeterminism, SeedSweepAggregate) {
  // The sweep pool hands indices out in scheduling-dependent order; the
  // deterministic by-seed merge must make the aggregate independent of it.
  const auto body = [](std::uint64_t seed) {
    auto config = plain_push_config();
    config.seed = seed;
    auto simulator = sim::make_push_phase_simulator(config, 0.3, 0.95);
    return simulator->propagate_update();
  };
  sim::AggregateMetrics aggregate;
  for (const auto& run : sim::sweep_seeds<sim::RunMetrics>(5'000, 5, body, 4)) {
    aggregate.add(run);
  }
  // All five seeds spread for multiple rounds under the current draw
  // sequence; the pin is about scheduling-independence, not the values.
  EXPECT_DOUBLE_EQ(aggregate.messages_per_initial_online.mean(),
                   4.6816666666666658);
  EXPECT_DOUBLE_EQ(aggregate.final_aware_fraction.mean(),
                   0.79401371347155647);
  EXPECT_DOUBLE_EQ(aggregate.rounds_to_quiescence.mean(),
                   8.5999999999999996);
  EXPECT_DOUBLE_EQ(aggregate.duplicates.mean(), 55.799999999999997);
  EXPECT_DOUBLE_EQ(aggregate.pull_messages.mean(), 0.0);
}

}  // namespace
}  // namespace updp2p

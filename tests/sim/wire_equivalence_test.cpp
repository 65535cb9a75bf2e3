// Wire-equivalence suite: the zero-copy serialized path (one encoded
// frame per fan-out run on the bus, probe-classified duplicates, streamed
// first-receipt decodes) must be OBSERVABLY IDENTICAL to delivering the
// in-memory payloads — same deliveries, same duplicate counts, same
// awareness curve, same per-node protocol state, at every shard count.
// This is the acceptance gate for the lazy-decode trust contract: if the
// probe path ever classified a message differently from a full decode, or
// the streaming decoder ever produced a different flooding list, these
// fingerprints would split.
#include "churn/churn_model.hpp"
#include "sim/round_simulator.hpp"

#include <bit>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

namespace updp2p {
namespace {

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

/// The full-feature configuration of the golden suite: self-tuning
/// forwards, capped flooding lists, acks, pulls, loss and churn with
/// rejoins — every message kind and every duplicate/first-receipt path is
/// live on the wire.
sim::RoundSimConfig full_feature_config(bool serialize,
                                        unsigned shard_threads) {
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
  config.serialize_messages = serialize;
  config.message_loss = 0.05;
  config.max_rounds = 60;
  config.seed = 99;
  config.shard_threads = shard_threads;
  return config;
}

/// Everything observable about a run, folded: per-round metrics (messages
/// by kind, duplicates, bytes, awareness), merged bus totals, and the
/// complete per-node protocol statistics.
std::uint64_t run_fingerprint(bool serialize, unsigned shard_threads) {
  auto churn = std::make_unique<churn::BernoulliChurn>(300, 0.5, 0.95, 0.1);
  sim::RoundSimulator simulator(full_feature_config(serialize, shard_threads),
                                std::move(churn));
  const auto metrics = simulator.propagate_update();

  Fnv f;
  f.add(metrics.rounds.size());
  for (const auto& r : metrics.rounds) {
    f.add(static_cast<std::uint64_t>(r.round));
    f.add(r.online);
    f.add(r.aware_online);
    f.add(r.push_messages);
    f.add(r.pull_messages);
    f.add(r.ack_messages);
    f.add(r.query_messages);
    f.add(r.duplicates);
    f.add(r.bytes);
  }
  const net::BusStats bus = simulator.bus_stats();
  f.add(bus.messages_sent);
  f.add(bus.messages_delivered);
  f.add(bus.messages_to_offline);
  f.add(bus.messages_dropped);
  f.add(bus.bytes_sent);
  for (std::uint32_t i = 0; i < 300; ++i) {
    const gossip::NodeStats& stats =
        simulator.node(common::PeerId(i)).stats();
    f.add(stats.pushes_received);
    f.add(stats.duplicate_pushes);
    f.add(stats.pushes_forwarded);
    f.add(stats.forwards_suppressed);
    f.add(stats.updates_learned_push);
    f.add(stats.updates_learned_pull);
    f.add(stats.pull_requests_sent);
    f.add(stats.pull_requests_received);
    f.add(stats.pull_responses_received);
    f.add(stats.acks_sent);
    f.add(stats.acks_received);
    f.add(stats.members_discovered);
    f.add(stats.bytes_sent);
  }
  return f.h;
}

TEST(WireEquivalence, SerializedRunIsBitIdenticalAtEveryShardCount) {
  const std::uint64_t in_memory = run_fingerprint(false, 1);
  for (const unsigned shards : {1u, 2u, 8u}) {
    EXPECT_EQ(run_fingerprint(true, shards), in_memory)
        << "serialize=true, shards=" << shards;
    EXPECT_EQ(run_fingerprint(false, shards), in_memory)
        << "serialize=false, shards=" << shards;
  }
}

TEST(WireEquivalence, PlainPushPhaseMatchesWithoutAcksOrPulls) {
  // The duplicate-heavy regime: blind pushing, no acks, no pulls — the
  // probe-only duplicate path carries almost all wire-mode deliveries.
  const auto run = [](bool serialize) {
    sim::RoundSimConfig config;
    config.population = 400;
    config.gossip.estimated_total_replicas = 400;
    config.gossip.fanout_fraction = 0.05;
    config.reconnect_pull = false;
    config.round_timers = false;
    config.serialize_messages = serialize;
    config.seed = 7;
    auto simulator = sim::make_push_phase_simulator(config, 0.6, 0.98);
    const auto metrics = simulator->propagate_update();
    Fnv f;
    f.add(metrics.rounds.size());
    std::uint64_t duplicates = 0;
    for (const auto& r : metrics.rounds) {
      f.add(r.aware_online);
      f.add(r.push_messages);
      f.add(r.duplicates);
      f.add(r.bytes);
      duplicates += r.duplicates;
    }
    // The regime check: this configuration must actually produce the ~80%
    // duplicate traffic of paper §4.1 the wire path optimises for.
    EXPECT_GT(duplicates, 100u);
    return f.h;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace updp2p

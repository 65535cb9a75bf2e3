// Robustness fuzzing: a ReplicaNode must survive arbitrary message
// sequences — hostile, reordered, duplicated, or nonsensical — without
// crashing, and its core invariants must hold afterwards. Networks deliver
// garbage; protocols keep state machines sane anyway.
#include <gtest/gtest.h>

#include "gossip/node.hpp"
#include "support/node_reactions.hpp"

namespace updp2p::gossip {
namespace {

using common::PeerId;
using common::StreamRng;
using testsupport::deliver;
using testsupport::reconnect;
using testsupport::round_start;

GossipConfig fuzz_config(StreamRng& rng) {
  GossipConfig config;
  config.estimated_total_replicas = 64;
  config.fanout_fraction = 0.05 + rng.uniform01() * 0.2;
  config.self_tuning = rng.bernoulli(0.5);
  config.acks.enabled = rng.bernoulli(0.5);
  config.acks.suppression_rounds = 5;
  config.pull.lazy = rng.bernoulli(0.5);
  config.pull.no_update_timeout = 3 + static_cast<common::Round>(
                                          rng.uniform_below(10));
  config.partial_list.mode = static_cast<PartialListMode>(
      rng.uniform_below(5));
  config.partial_list.max_entries = 1 + rng.uniform_below(20);
  return config;
}

version::VersionedValue random_value(StreamRng& rng) {
  version::VersionedValue value;
  value.key = "k" + std::to_string(rng.uniform_below(4));
  value.payload = "p" + std::to_string(rng.uniform_below(1000));
  version::VersionIdFactory factory(
      PeerId(static_cast<std::uint32_t>(rng.uniform_below(64))), rng.split());
  value.id = factory.mint(rng.uniform01());
  const auto entries = rng.uniform_below(5);
  for (std::uint64_t i = 0; i < entries; ++i) {
    value.history.observe(
        PeerId(static_cast<std::uint32_t>(rng.uniform_below(64))),
        rng.uniform_below(8) + 1);
  }
  value.tombstone = rng.bernoulli(0.15);
  return value;
}

GossipPayload random_payload(StreamRng& rng) {
  switch (rng.uniform_below(6)) {
    case 0: {
      PushMessage push;
      push.value = random_value(rng);
      const auto list_size = rng.uniform_below(10);
      for (std::uint64_t i = 0; i < list_size; ++i) {
        push.flooding_list.insert(
            PeerId(static_cast<std::uint32_t>(rng.uniform_below(64))));
      }
      push.round = static_cast<common::Round>(rng.uniform_below(20));
      return push;
    }
    case 1: {
      PullRequest request;
      const auto entries = rng.uniform_below(6);
      for (std::uint64_t i = 0; i < entries; ++i) {
        request.summary.observe(
            PeerId(static_cast<std::uint32_t>(rng.uniform_below(64))),
            rng.uniform_below(10) + 1);
      }
      return request;
    }
    case 2: {
      PullResponse response;
      const auto values = rng.uniform_below(4);
      for (std::uint64_t i = 0; i < values; ++i) {
        response.missing.push_back(random_value(rng));
      }
      response.confident = rng.bernoulli(0.5);
      return response;
    }
    case 3: {
      version::VersionIdFactory factory(PeerId(1), rng.split());
      return AckMessage{factory.mint(0.0)};
    }
    case 4:
      return QueryRequest{"k" + std::to_string(rng.uniform_below(4)),
                          rng.uniform_below(100)};
    default: {
      QueryReply reply;
      reply.key = "k" + std::to_string(rng.uniform_below(4));
      reply.nonce = rng.uniform_below(100);  // usually unknown to the node
      const auto values = rng.uniform_below(3);
      for (std::uint64_t i = 0; i < values; ++i) {
        reply.versions.push_back(random_value(rng));
      }
      return reply;
    }
  }
}

class NodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NodeFuzz, SurvivesRandomMessageStorm) {
  StreamRng rng(GetParam());
  auto config = fuzz_config(rng);
  ReplicaNode node(PeerId(0), config, common::StreamRng(rng(), 0));
  std::vector<PeerId> view;
  for (std::uint32_t i = 1; i < 64; ++i) view.emplace_back(i);
  node.bootstrap(view);

  common::Round now = 0;
  for (int step = 0; step < 2'000; ++step) {
    const auto action = rng.uniform_below(100);
    if (action < 70) {
      const PeerId from(
          static_cast<std::uint32_t>(rng.uniform_below(64)) + 1);
      (void)deliver(node, from, random_payload(rng), now);
    } else if (action < 78) {
      (void)node.publish("k" + std::to_string(rng.uniform_below(4)),
                         "local", now);
    } else if (action < 82) {
      (void)node.remove("k" + std::to_string(rng.uniform_below(4)), now);
    } else if (action < 88) {
      (void)reconnect(node, now);
    } else if (action < 92) {
      node.on_disconnect(now);
    } else if (action < 96) {
      (void)round_start(node, now);
    } else {
      const auto started = node.begin_query(
          "k" + std::to_string(rng.uniform_below(4)),
          static_cast<QueryRule>(rng.uniform_below(3)), 3, now);
      (void)node.poll_query(started.nonce, now + 1);
    }
    if (rng.bernoulli(0.3)) ++now;
  }

  // --- invariants after the storm -----------------------------------------
  // 1. Per-key maximal sets are pairwise concurrent (no dominated version
  //    survives).
  for (const auto& key : node.store().keys()) {
    const auto versions = node.store().versions(key);
    for (std::size_t i = 0; i < versions.size(); ++i) {
      for (std::size_t j = 0; j < versions.size(); ++j) {
        if (i == j) continue;
        EXPECT_NE(versions[i].history.compare(versions[j].history),
                  version::Causality::kDominates)
            << "dominated version retained for " << key;
      }
    }
    // 2. Every stored version is covered by the store summary.
    for (const auto& v : versions) {
      EXPECT_TRUE(v.history.covered_by(node.store().summary()));
    }
  }
  // 3. Monotone counters are self-consistent.
  const auto& stats = node.stats();
  EXPECT_LE(stats.duplicate_pushes, stats.pushes_received);
  // 4. The view never contains the node itself.
  EXPECT_FALSE(node.view().contains(PeerId(0)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class TwoNodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TwoNodeFuzz, PairwiseGossipConverges) {
  // Two nodes exchanging ALL their traffic (with random drops) must end up
  // with equivalent stores after a final clean pull exchange.
  StreamRng rng(GetParam() * 977);
  GossipConfig config;
  config.estimated_total_replicas = 2;
  config.fanout_fraction = 1.0;
  const std::uint64_t node_seed = rng();
  ReplicaNode a(PeerId(0), config, common::StreamRng(node_seed, 0));
  ReplicaNode b(PeerId(1), config, common::StreamRng(node_seed, 1));
  const std::vector<PeerId> va{PeerId(1)};
  const std::vector<PeerId> vb{PeerId(0)};
  a.bootstrap(va);
  b.bootstrap(vb);

  common::Round now = 0;
  for (int step = 0; step < 200; ++step, ++now) {
    ReplicaNode& writer = rng.bernoulli(0.5) ? a : b;
    auto out = writer.publish("k" + std::to_string(rng.uniform_below(3)),
                              "v" + std::to_string(step), now);
    // Deliver with 30% loss, plus any cascading reactions.
    std::vector<std::pair<PeerId, testsupport::Send>> queue;
    for (auto& message : testsupport::sends(out)) {
      queue.emplace_back(writer.id(), std::move(message));
    }
    while (!queue.empty()) {
      auto [sender, message] = std::move(queue.back());
      queue.pop_back();
      if (rng.bernoulli(0.3)) continue;  // lost
      ReplicaNode& receiver = message.to == PeerId(0) ? a : b;
      auto reactions = deliver(receiver, sender, message.payload, now);
      for (auto& reaction : reactions) {
        queue.emplace_back(receiver.id(), std::move(reaction));
      }
    }
  }

  // Clean final anti-entropy both ways.
  for (int round = 0; round < 2; ++round) {
    for (auto* puller : {&a, &b}) {
      ReplicaNode& pulled = puller == &a ? b : a;
      auto requests = reconnect(*puller, now);
      for (const auto& request : requests) {
        auto responses =
            deliver(pulled, puller->id(), request.payload, now);
        for (const auto& response : responses) {
          (void)deliver(*puller, pulled.id(), response.payload, now);
        }
      }
      ++now;
    }
  }
  EXPECT_EQ(a.store().summary(), b.store().summary());
  for (const auto& key : a.store().keys()) {
    const auto va2 = a.store().read(key);
    const auto vb2 = b.store().read(key);
    ASSERT_EQ(va2.has_value(), vb2.has_value()) << key;
    if (va2.has_value()) {
      EXPECT_EQ(va2->id, vb2->id) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoNodeFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace updp2p::gossip

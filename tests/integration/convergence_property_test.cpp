// Property: N replicas exchanging pushes and pulls under ARBITRARY message
// interleavings, losses and reorderings converge to identical stores after
// a final clean reconciliation sweep — the strongest statement of the
// paper's eventual quasi-consistency, checked over many random schedules.
#include <gtest/gtest.h>

#include <deque>

#include "gossip/node.hpp"

namespace updp2p {
namespace {

using common::PeerId;
using common::StreamRng;
using gossip::OutboundMessage;
using gossip::ReplicaNode;

constexpr std::uint32_t kNodes = 4;

struct InFlight {
  PeerId from;
  OutboundMessage message;
};

class ConvergenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvergenceProperty, AnyScheduleConvergesAfterCleanSweep) {
  StreamRng rng(GetParam() * 1'000'003);

  gossip::GossipConfig config;
  config.estimated_total_replicas = kNodes;
  config.fanout_fraction = 0.5;
  config.pull.contacts_per_attempt = 2;
  config.pull.no_update_timeout = 1'000'000;  // pulls only when we say so

  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  std::vector<PeerId> everyone;
  for (std::uint32_t i = 0; i < kNodes; ++i) everyone.emplace_back(i);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    nodes.push_back(
        std::make_unique<ReplicaNode>(PeerId(i), config,
                                      common::StreamRng(rng(), i)));
    std::vector<PeerId> view;
    for (std::uint32_t j = 0; j < kNodes; ++j) {
      if (j != i) view.emplace_back(j);
    }
    nodes.back()->bootstrap(view);
  }

  // Random schedule: interleave writes, deletes, reconnect-pulls and
  // message deliveries in arbitrary order, dropping 30% and shuffling the
  // in-flight queue constantly.
  std::deque<InFlight> in_flight;
  common::Round now = 0;
  auto enqueue = [&in_flight](PeerId from, std::vector<OutboundMessage> out) {
    for (auto& message : out) {
      in_flight.push_back(InFlight{from, std::move(message)});
    }
  };

  for (int step = 0; step < 400; ++step, now += rng.bernoulli(0.4) ? 1 : 0) {
    const auto dice = rng.uniform_below(100);
    const PeerId actor(static_cast<std::uint32_t>(rng.uniform_below(kNodes)));
    if (dice < 25) {
      enqueue(actor, nodes[actor.value()]->publish(
                         "k" + std::to_string(rng.uniform_below(3)),
                         "v" + std::to_string(step), now));
    } else if (dice < 30) {
      enqueue(actor, nodes[actor.value()]->remove(
                         "k" + std::to_string(rng.uniform_below(3)), now));
    } else if (dice < 40) {
      enqueue(actor, nodes[actor.value()]->on_reconnect(now));
    } else if (!in_flight.empty()) {
      // Deliver a RANDOM in-flight message (arbitrary reordering).
      const std::size_t pick = rng.pick_index(in_flight.size());
      std::swap(in_flight[pick], in_flight.back());
      InFlight delivery = std::move(in_flight.back());
      in_flight.pop_back();
      if (rng.bernoulli(0.3)) continue;  // lost
      enqueue(delivery.message.to,
              nodes[delivery.message.to.value()]->handle_message(
                  delivery.from, delivery.message.payload, now));
    }
  }
  in_flight.clear();  // whatever is still flying is lost

  // Clean sweep: two rounds of loss-free pairwise pulls in both directions.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::uint32_t a = 0; a < kNodes; ++a) {
      for (std::uint32_t b = 0; b < kNodes; ++b) {
        if (a == b) continue;
        ++now;
        // Direct pull a <- b.
        const gossip::PullRequest request{
            nodes[a]->store().summary(), nodes[a]->store().stored_ids(),
            nodes[a]->store().content_digest()};
        const auto responses = nodes[b]->handle_message(
            PeerId(a), gossip::GossipPayload{request}, now);
        for (const auto& response : responses) {
          if (std::holds_alternative<gossip::PullResponse>(response.payload)) {
            (void)nodes[a]->handle_message(PeerId(b), response.payload, now);
          }
        }
      }
    }
  }

  // All stores identical: same digest, same summaries, same winners.
  for (std::uint32_t i = 1; i < kNodes; ++i) {
    EXPECT_EQ(nodes[0]->store().content_digest(),
              nodes[i]->store().content_digest())
        << "store digests diverge at node " << i;
    EXPECT_EQ(nodes[0]->store().summary(), nodes[i]->store().summary());
  }
  for (const auto& key : nodes[0]->store().keys()) {
    const auto reference = nodes[0]->store().read(key);
    for (std::uint32_t i = 1; i < kNodes; ++i) {
      const auto other = nodes[i]->store().read(key);
      ASSERT_EQ(reference.has_value(), other.has_value()) << key;
      if (reference.has_value()) {
        EXPECT_EQ(reference->id, other->id) << key;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, ConvergenceProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace updp2p

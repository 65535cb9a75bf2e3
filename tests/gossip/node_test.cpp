#include "gossip/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "gossip/codec.hpp"
#include "support/node_reactions.hpp"

namespace updp2p::gossip {
namespace {

using common::PeerId;
using common::StreamRng;
using testsupport::deliver;
using testsupport::reconnect;
using testsupport::round_start;
using testsupport::Send;
using testsupport::sends;

GossipConfig test_config() {
  GossipConfig config;
  config.estimated_total_replicas = 100;
  config.fanout_fraction = 0.05;  // absolute fanout 5
  config.forward_probability = analysis::pf_constant(1.0);
  config.partial_list.mode = PartialListMode::kUnbounded;
  config.pull.contacts_per_attempt = 3;
  config.pull.no_update_timeout = 10;
  return config;
}

ReplicaNode make_node(std::uint32_t id, GossipConfig config = test_config(),
                      std::uint32_t population = 100) {
  ReplicaNode node(PeerId(id), std::move(config),
                   common::StreamRng(1000 + id));
  std::vector<PeerId> view;
  for (std::uint32_t i = 0; i < population; ++i) {
    if (i != id) view.emplace_back(i);
  }
  node.bootstrap(view);
  return node;
}

const PushMessage& as_push(const Send& message) {
  return std::get<PushMessage>(message.payload);
}

TEST(ReplicaNode, PublishSendsFanoutPushes) {
  auto node = make_node(0);
  const auto out = sends(node.publish("key", "v1", 0));
  EXPECT_EQ(out.size(), 5u);  // fanout = 100 * 0.05
  std::unordered_set<PeerId> targets;
  for (const auto& message : out) {
    ASSERT_TRUE(std::holds_alternative<PushMessage>(message.payload));
    const auto& push = as_push(message);
    EXPECT_EQ(push.round, 0u);
    EXPECT_EQ(push.value.payload, "v1");
    targets.insert(message.to);
  }
  EXPECT_EQ(targets.size(), 5u);  // distinct targets
  EXPECT_EQ(node.stats().updates_originated, 1u);
  EXPECT_EQ(node.stats().pushes_forwarded, 5u);
  // Local read works immediately.
  EXPECT_EQ(node.read("key")->payload, "v1");
}

TEST(ReplicaNode, PublishFloodingListCoversSelfAndTargets) {
  auto node = make_node(0);
  const auto out = sends(node.publish("key", "v1", 0));
  ASSERT_FALSE(out.empty());
  const auto& list = as_push(out.front()).flooding_list;
  EXPECT_TRUE(list.contains(PeerId(0)));
  for (const auto& message : out) {
    EXPECT_TRUE(list.contains(message.to));
  }
}

TEST(ReplicaNode, HandlePushForwardsWithIncrementedRound) {
  auto alice = make_node(0);
  auto bob = make_node(1);
  const auto from_alice = sends(alice.publish("key", "v1", 0));
  const auto reactions =
      deliver(bob, PeerId(0), from_alice.front().payload, 1);
  ASSERT_FALSE(reactions.empty());
  for (const auto& message : reactions) {
    ASSERT_TRUE(std::holds_alternative<PushMessage>(message.payload));
    EXPECT_EQ(as_push(message).round, 1u);
  }
  EXPECT_EQ(bob.read("key")->payload, "v1");
  EXPECT_EQ(bob.stats().updates_learned_push, 1u);
}

TEST(ReplicaNode, ForwardTargetsExcludeFloodingListAndSender) {
  auto alice = make_node(0);
  auto bob = make_node(1);
  const auto from_alice = sends(alice.publish("key", "v1", 0));
  const auto& received = as_push(from_alice.front());
  const auto reactions =
      deliver(bob, PeerId(0), from_alice.front().payload, 1);
  for (const auto& message : reactions) {
    EXPECT_FALSE(received.flooding_list.contains(message.to))
        << "pushed to already-covered peer " << message.to.value();
    EXPECT_NE(message.to, PeerId(0));
  }
}

TEST(ReplicaNode, ForwardedListIsUnionOfReceivedAndNewTargets) {
  auto alice = make_node(0);
  auto bob = make_node(1);
  const auto from_alice = sends(alice.publish("key", "v1", 0));
  const auto& received = as_push(from_alice.front());
  const auto reactions =
      deliver(bob, PeerId(0), from_alice.front().payload, 1);
  ASSERT_FALSE(reactions.empty());
  const auto& forwarded_list = as_push(reactions.front()).flooding_list;
  // Everything alice advertised is still there...
  received.flooding_list.for_each([&](PeerId peer) {
    EXPECT_TRUE(forwarded_list.contains(peer)) << peer.value();
  });
  // ...plus bob and its new targets.
  EXPECT_TRUE(forwarded_list.contains(PeerId(1)));
  for (const auto& message : reactions) {
    EXPECT_TRUE(forwarded_list.contains(message.to));
  }
}

TEST(ReplicaNode, ForwardIsOneMessageToItsTargetsInSampledOrder) {
  // §3/§4.2: a forward pushes one update with one list to R_p \ R_f. The
  // node emits it as ONE message naming every target, in the order R_p
  // was drawn; the ack to the pusher is a message of its own, before it.
  auto config = test_config();
  config.acks.enabled = true;
  config.target_selection = TargetSelection::kFixedNeighbors;
  auto bob = make_node(1, config);
  // Fixed neighbours make R_p known: the first five (the fanout), in order.
  const std::vector<PeerId> fixed{PeerId(9), PeerId(4), PeerId(7),
                                  PeerId(0), PeerId(3), PeerId(8)};
  bob.seed_fixed_neighbors(fixed);
  auto alice = make_node(0);
  const auto published = sends(alice.publish("key", "v1", 0));
  const PushMessage push{as_push(published.front()).value,
                         {PeerId(0), PeerId(7), PeerId(20)}, 0};

  std::vector<OutboundMessage> out;
  ASSERT_TRUE(bob.handle_frame(PeerId(0), encode(GossipPayload{push}), 1, out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].targets, std::vector<PeerId>{PeerId(0)});
  EXPECT_TRUE(std::holds_alternative<AckMessage>(out[0].payload));
  // R_p = 9, 4, 7, 0, 3 less R_f's 7 and the sender 0, order kept.
  EXPECT_EQ(out[1].targets,
            (std::vector<PeerId>{PeerId(9), PeerId(4), PeerId(3)}));
  const auto& forward = std::get<PushMessage>(out[1].payload);
  EXPECT_EQ(forward.round, 1u);
  EXPECT_EQ(forward.value, push.value);
  // R_f ∪ {self} ∪ R_p.
  EXPECT_EQ(forward.flooding_list,
            (common::ChunkedPeerSet{PeerId(0), PeerId(1), PeerId(3), PeerId(4),
                                    PeerId(7), PeerId(9), PeerId(20)}));
  EXPECT_EQ(bob.stats().pushes_forwarded, 3u);
}

TEST(ReplicaNode, EmptyViewEmitsNoMessage) {
  // A fan-out with no target is no message: no message ever has an empty
  // target list.
  ReplicaNode loner(PeerId(0), test_config(), StreamRng(3));
  std::vector<OutboundMessage> out;
  loner.on_reconnect(5, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(loner.stats().pull_requests_sent, 0u);
  const StartedQuery started =
      loner.begin_query("key", QueryRule::kLatestVersion, 3, 5);
  EXPECT_TRUE(started.messages.empty());
  EXPECT_TRUE(loner.poll_query(started.nonce, 5).complete);
  EXPECT_TRUE(loner.publish("key", "v1", 5).empty());
}

TEST(ReplicaNode, HostileListIdLeavesSamplerScratchViewSized) {
  // One push frame whose flooding list also names the largest id the wire
  // admits raises the view's id bound to 2^28. The forward's target
  // sample must not size its dedup scratch by that bound: a stamp array
  // over it is 1 GiB. It stays a small multiple of the view.
  WorkArena arena;
  ReplicaNode bob(PeerId(0), test_config(), StreamRng(5));
  bob.use_arena(&arena);
  std::vector<PeerId> view;
  for (std::uint32_t i = 1; i <= 31; ++i) view.emplace_back(i);
  bob.bootstrap(view);

  auto alice = make_node(1, test_config(), 32);
  const auto from_alice = sends(alice.publish("key", "v1", 0));
  const PushMessage& push = as_push(from_alice.front());
  common::ChunkedPeerSet list = push.flooding_list;
  list.insert(PeerId(static_cast<std::uint32_t>(kMaxWirePeerId - 1)));
  const WireBytes frame =
      encode(GossipPayload{PushMessage{push.value, list, push.round}});

  std::vector<OutboundMessage> out;
  ASSERT_TRUE(bob.handle_frame(PeerId(1), frame, 1, out));
  ASSERT_GT(bob.stats().pushes_forwarded, 0u);  // the sampler ran
  EXPECT_TRUE(bob.view().contains(
      PeerId(static_cast<std::uint32_t>(kMaxWirePeerId - 1))));
  EXPECT_LE(arena.chosen.capacity(), 4 * (bob.view().size() + 1));
}

TEST(ReplicaNode, MalformedFrameChangesNothing) {
  // handle_frame validates before it mutates. A frame cut short keeps the
  // prefix probe_frame reads, so it probes fine, then fails its full
  // decode: the node must refuse it and stay exactly as it was. Each kind
  // here carries more than the probe reads (an ack or a query request is
  // nothing but probed fields), and each is accepted whole.
  auto alice = make_node(0);
  (void)alice.publish("a", "1", 0);
  const auto pushes = sends(alice.publish("b", "2", 0));
  auto bob = make_node(1);
  const std::uint64_t nonce =
      bob.begin_query("a", QueryRule::kLatestVersion, 3, 1).nonce;
  const auto requests = reconnect(bob, 1);
  const auto responses =
      deliver(alice, PeerId(1), requests.front().payload, 1);
  ASSERT_FALSE(
      std::get<PullResponse>(responses.front().payload).missing.empty());
  const GossipPayload payloads[] = {
      pushes.front().payload, requests.front().payload,
      responses.front().payload,
      QueryReply{"a", nonce, {*alice.read("a")}, true}};

  for (std::uint32_t i = 0; i < std::size(payloads); ++i) {
    const WireBytes frame = encode(payloads[i]);
    const std::span<const std::byte> cut(frame.data(), frame.size() - 3);
    const auto probe = probe_frame(cut);
    ASSERT_TRUE(probe.has_value()) << "payload " << i;
    ASSERT_EQ(probe->kind, probe_frame(frame)->kind) << "payload " << i;
    ASSERT_FALSE(decode(cut).has_value()) << "payload " << i;

    // A sender outside bob's view: accepting anything from it shows.
    const PeerId stranger(200 + i);
    const NodeStats stats = bob.stats();
    const auto content = bob.store().content_digest();
    const common::ChunkedPeerSet members = bob.view().membership();
    std::vector<OutboundMessage> out;
    EXPECT_FALSE(bob.handle_frame(stranger, cut, 2, out)) << "payload " << i;
    EXPECT_TRUE(out.empty()) << "payload " << i;
    EXPECT_TRUE(bob.stats() == stats) << "payload " << i;
    EXPECT_EQ(bob.store().content_digest(), content) << "payload " << i;
    EXPECT_EQ(bob.view().membership(), members) << "payload " << i;

    EXPECT_TRUE(bob.handle_frame(stranger, frame, 2, out)) << "payload " << i;
    EXPECT_FALSE(bob.stats() == stats) << "payload " << i;
  }
}

TEST(ReplicaNode, DuplicatePushIsNotForwardedTwice) {
  auto alice = make_node(0);
  auto bob = make_node(1);
  const auto from_alice = sends(alice.publish("key", "v1", 0));
  const auto first =
      deliver(bob, PeerId(0), from_alice.front().payload, 1);
  EXPECT_FALSE(first.empty());
  const auto second =
      deliver(bob, PeerId(2), from_alice.front().payload, 1);
  EXPECT_TRUE(second.empty());  // push at most once (§3 pseudocode)
  EXPECT_EQ(bob.stats().duplicate_pushes, 1u);
  EXPECT_EQ(bob.stats().pushes_received, 2u);
}

TEST(ReplicaNode, PfZeroSuppressesForwarding) {
  auto config = test_config();
  config.forward_probability = analysis::pf_constant(0.0);
  auto alice = make_node(0);  // publisher keeps PF irrelevant for round 0
  auto bob = make_node(1, config);
  const auto from_alice = sends(alice.publish("key", "v1", 0));
  const auto reactions =
      deliver(bob, PeerId(0), from_alice.front().payload, 1);
  EXPECT_TRUE(reactions.empty());
  EXPECT_EQ(bob.stats().forwards_suppressed, 1u);
  EXPECT_EQ(bob.read("key")->payload, "v1");  // still applied locally
}

TEST(ReplicaNode, MembershipGrowsFromFloodingList) {
  auto alice = make_node(0, test_config(), 100);
  // Bob starts with a tiny view.
  ReplicaNode bob(PeerId(1), test_config(), common::StreamRng(77));
  const std::vector<PeerId> tiny{PeerId(0)};
  bob.bootstrap(tiny);
  EXPECT_EQ(bob.view().size(), 1u);
  const auto from_alice = sends(alice.publish("key", "v1", 0));
  (void)deliver(bob, PeerId(0), from_alice.front().payload, 1);
  // Flooding list contained alice's 5 targets (+alice, already known).
  EXPECT_GT(bob.view().size(), 1u);
  EXPECT_GT(bob.stats().members_discovered, 0u);
}

TEST(ReplicaNode, AckSentToFirstPusherOnly) {
  auto config = test_config();
  config.acks.enabled = true;
  auto alice = make_node(0, config);
  auto bob = make_node(1, config);
  const auto from_alice = sends(alice.publish("key", "v1", 0));
  const auto first =
      deliver(bob, PeerId(0), from_alice.front().payload, 1);
  const auto acks = std::count_if(
      first.begin(), first.end(), [](const Send& message) {
        return std::holds_alternative<AckMessage>(message.payload) &&
               message.to == PeerId(0);
      });
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(bob.stats().acks_sent, 1u);
  // A duplicate from another peer gets no ack (k = 1).
  const auto second =
      deliver(bob, PeerId(2), from_alice.front().payload, 1);
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(bob.stats().acks_sent, 1u);
}

TEST(ReplicaNode, AckMarksSenderPreferred) {
  auto config = test_config();
  config.acks.enabled = true;
  auto alice = make_node(0, config);
  (void)alice.publish("key", "v1", 0);
  (void)deliver(alice, PeerId(5), GossipPayload{AckMessage{}}, 1);
  EXPECT_TRUE(alice.view().is_preferred(PeerId(5)));
  EXPECT_EQ(alice.stats().acks_received, 1u);
}

TEST(ReplicaNode, MissingAckPresumesTargetOffline) {
  auto config = test_config();
  config.acks.enabled = true;
  config.acks.suppression_rounds = 10;
  auto alice = make_node(0, config);
  const auto out = sends(alice.publish("key", "v1", 0));
  ASSERT_FALSE(out.empty());
  const PeerId target = out.front().to;
  // No acks arrive; after the ack wait the target is presumed offline.
  (void)round_start(alice, 1);
  EXPECT_FALSE(alice.view().is_presumed_offline(target, 1));
  (void)round_start(alice, 3);
  EXPECT_TRUE(alice.view().is_presumed_offline(target, 3));
  EXPECT_FALSE(alice.view().is_presumed_offline(target, 14));
}

TEST(ReplicaNode, EagerReconnectPulls) {
  auto node = make_node(0);
  const auto out = reconnect(node, 5);
  EXPECT_EQ(out.size(), 3u);  // contacts_per_attempt
  for (const auto& message : out) {
    EXPECT_TRUE(std::holds_alternative<PullRequest>(message.payload));
  }
  EXPECT_FALSE(node.confident(5));  // not synced yet
  EXPECT_EQ(node.stats().pull_requests_sent, 3u);
}

TEST(ReplicaNode, LazyReconnectWaitsForPush) {
  auto config = test_config();
  config.pull.lazy = true;
  auto node = make_node(1, config);
  EXPECT_TRUE(reconnect(node, 5).empty());
  EXPECT_TRUE(node.lazy_pull_armed());

  // First push arms a targeted pull to the pusher.
  auto alice = make_node(0);
  const auto from_alice = sends(alice.publish("key", "v1", 5));
  const auto reactions =
      deliver(node, PeerId(0), from_alice.front().payload, 6);
  const auto pulls_to_alice = std::count_if(
      reactions.begin(), reactions.end(), [](const Send& message) {
        return std::holds_alternative<PullRequest>(message.payload) &&
               message.to == PeerId(0);
      });
  EXPECT_EQ(pulls_to_alice, 1);
  EXPECT_FALSE(node.lazy_pull_armed());
}

TEST(ReplicaNode, PullRequestAnsweredWithDelta) {
  auto rich = make_node(0);
  (void)rich.publish("a", "1", 0);
  (void)rich.publish("b", "2", 0);
  auto poor = make_node(1);

  // poor pulls from rich.
  const auto requests = reconnect(poor, 1);
  ASSERT_FALSE(requests.empty());
  const auto responses =
      deliver(rich, PeerId(1), requests.front().payload, 1);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(std::holds_alternative<PullResponse>(responses.front().payload));
  const auto& response = std::get<PullResponse>(responses.front().payload);
  EXPECT_EQ(response.missing.size(), 2u);
  EXPECT_EQ(responses.front().to, PeerId(1));
  EXPECT_EQ(rich.stats().pull_requests_received, 1u);

  // poor applies the response and is now in sync and confident.
  (void)deliver(poor, PeerId(0), responses.front().payload, 2);
  EXPECT_EQ(poor.read("a")->payload, "1");
  EXPECT_EQ(poor.read("b")->payload, "2");
  EXPECT_EQ(poor.stats().updates_learned_pull, 2u);
  EXPECT_TRUE(poor.confident(2));
}

TEST(ReplicaNode, InSyncPullShortCircuitsViaDigest) {
  auto rich = make_node(0);
  (void)rich.publish("a", "1", 0);
  auto peer = make_node(1);
  // First pull: full delta ships.
  auto requests = reconnect(peer, 1);
  auto responses = deliver(rich, PeerId(1), requests.front().payload, 1);
  EXPECT_FALSE(
      std::get<PullResponse>(responses.front().payload).missing.empty());
  (void)deliver(peer, PeerId(0), responses.front().payload, 1);

  // Stores now identical: the next request's digest matches and the
  // response is empty without a delta computation.
  EXPECT_EQ(peer.store().content_digest(), rich.store().content_digest());
  requests = reconnect(peer, 2);
  const auto& request = std::get<PullRequest>(requests.front().payload);
  EXPECT_EQ(request.store_digest, peer.store().content_digest());
  responses = deliver(rich, PeerId(1), requests.front().payload, 2);
  EXPECT_TRUE(
      std::get<PullResponse>(responses.front().payload).missing.empty());
}

TEST(ReplicaNode, PullResponseOnlyShipsMissingVersions) {
  auto rich = make_node(0);
  (void)rich.publish("a", "1", 0);
  auto peer = make_node(1);
  // peer already has "a" via push.
  const auto push = rich.publish("b", "2", 0);
  // give peer everything first
  const auto requests = reconnect(peer, 1);
  auto responses = deliver(rich, PeerId(1), requests.front().payload, 1);
  (void)deliver(peer, PeerId(0), responses.front().payload, 1);
  // a second pull ships nothing new
  const auto requests2 = reconnect(peer, 2);
  responses = deliver(rich, PeerId(1), requests2.front().payload, 2);
  EXPECT_TRUE(std::get<PullResponse>(responses.front().payload).missing.empty());
}

TEST(ReplicaNode, UnconfidentPulledPartyAlsoPulls) {
  auto config = test_config();
  config.pull.no_update_timeout = 2;
  auto node = make_node(0, config);
  // Node has been idle since round 0; at round 50 it is unconfident.
  EXPECT_FALSE(node.confident(50));
  PullRequest request;  // empty summary
  const auto reactions =
      deliver(node, PeerId(1), GossipPayload{request}, 50);
  // One PullResponse to the requester + own pull requests (§3).
  std::size_t responses = 0;
  std::size_t pulls = 0;
  for (const auto& message : reactions) {
    if (std::holds_alternative<PullResponse>(message.payload)) ++responses;
    if (std::holds_alternative<PullRequest>(message.payload)) ++pulls;
  }
  EXPECT_EQ(responses, 1u);
  EXPECT_EQ(pulls, 3u);
  // The response advertises the responder's lack of confidence.
  for (const auto& message : reactions) {
    if (const auto* resp = std::get_if<PullResponse>(&message.payload)) {
      EXPECT_FALSE(resp->confident);
    }
  }
}

TEST(ReplicaNode, StaleTimerTriggersPull) {
  auto config = test_config();
  config.pull.no_update_timeout = 5;
  auto node = make_node(0, config);
  EXPECT_TRUE(round_start(node, 3).empty());   // not stale yet
  const auto out = round_start(node, 7);       // stale
  EXPECT_EQ(out.size(), 3u);
  for (const auto& message : out) {
    EXPECT_TRUE(std::holds_alternative<PullRequest>(message.payload));
  }
  // Immediately after pulling, the cooldown prevents re-pulling.
  EXPECT_TRUE(round_start(node, 8).empty());
}

TEST(ReplicaNode, RemovePropagatesTombstone) {
  auto alice = make_node(0);
  auto bob = make_node(1);
  (void)alice.publish("key", "v1", 0);
  const auto removal = sends(alice.remove("key", 1));
  ASSERT_FALSE(removal.empty());
  EXPECT_TRUE(as_push(removal.front()).value.tombstone);
  (void)deliver(bob, PeerId(0), removal.front().payload, 2);
  EXPECT_FALSE(bob.read("key").has_value());
  EXPECT_TRUE(bob.store().is_deleted("key"));
}

TEST(ReplicaNode, ConfidenceDecaysWithoutActivity) {
  auto config = test_config();
  config.pull.no_update_timeout = 4;
  auto node = make_node(0, config);
  EXPECT_TRUE(node.confident(0));
  EXPECT_TRUE(node.confident(4));
  EXPECT_FALSE(node.confident(5));
}

TEST(ReplicaNode, DisconnectClearsPendingState) {
  auto config = test_config();
  config.acks.enabled = true;
  config.acks.suppression_rounds = 10;
  config.pull.lazy = true;
  auto node = make_node(0, config);
  (void)node.publish("key", "v1", 0);
  (void)reconnect(node, 1);
  EXPECT_TRUE(node.lazy_pull_armed());
  node.on_disconnect(2);
  EXPECT_FALSE(node.lazy_pull_armed());
  // Pending acks were dropped: no suppression happens later.
  (void)round_start(node, 10);
  EXPECT_EQ(node.view().presumed_offline_count(10), 0u);
}

TEST(ReplicaNode, SmallViewLimitsFanout) {
  ReplicaNode node(PeerId(0), test_config(), common::StreamRng(1));
  const std::vector<PeerId> tiny{PeerId(1), PeerId(2)};
  node.bootstrap(tiny);
  const auto out = sends(node.publish("key", "v1", 0));
  EXPECT_EQ(out.size(), 2u);  // fanout 5, but only 2 known peers
}

TEST(ReplicaNode, FixedNeighborsReusedAcrossUpdates) {
  auto config = test_config();
  config.target_selection = TargetSelection::kFixedNeighbors;
  auto node = make_node(0, config);
  // 8 is listed twice and still gets one push per update.
  const std::vector<PeerId> fixed{PeerId(7), PeerId(8), PeerId(8),
                                  PeerId(9)};
  node.seed_fixed_neighbors(fixed);

  for (int update = 0; update < 3; ++update) {
    const auto out =
        sends(node.publish("k" + std::to_string(update), "v",
                           static_cast<common::Round>(update)));
    ASSERT_EQ(out.size(), 3u);
    std::unordered_set<PeerId> targets;
    for (const auto& message : out) targets.insert(message.to);
    EXPECT_EQ(targets.size(), 3u);
    EXPECT_TRUE(targets.contains(PeerId(7)));
    EXPECT_TRUE(targets.contains(PeerId(8)));
    EXPECT_TRUE(targets.contains(PeerId(9)));
  }
}

TEST(ReplicaNode, FixedNeighborsDrawnLazilyWhenNotSeeded) {
  auto config = test_config();
  config.target_selection = TargetSelection::kFixedNeighbors;
  auto node = make_node(0, config);
  const auto first = sends(node.publish("a", "v", 0));
  const auto second = sends(node.publish("b", "v", 1));
  ASSERT_EQ(first.size(), second.size());
  std::unordered_set<PeerId> first_targets, second_targets;
  for (const auto& m : first) first_targets.insert(m.to);
  for (const auto& m : second) second_targets.insert(m.to);
  EXPECT_EQ(first_targets, second_targets);  // same set every time
}

TEST(ReplicaNode, SeedFixedNeighborsExcludesSelf) {
  auto config = test_config();
  config.target_selection = TargetSelection::kFixedNeighbors;
  auto node = make_node(0, config);
  const std::vector<PeerId> fixed{PeerId(0), PeerId(1)};
  node.seed_fixed_neighbors(fixed);
  const auto out = sends(node.publish("k", "v", 0));
  for (const auto& message : out) EXPECT_NE(message.to, PeerId(0));
}

TEST(ReplicaNode, ConfigValidationRejectsBadFanout) {
  GossipConfig config;
  config.fanout_fraction = 0.0;
  EXPECT_DEATH(
      { ReplicaNode node(PeerId(0), config, common::StreamRng(1)); }, "f_r");
}

}  // namespace
}  // namespace updp2p::gossip

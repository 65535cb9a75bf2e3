// Tests for the message-based §4.4 query protocol on ReplicaNode.
#include <gtest/gtest.h>

#include "gossip/node.hpp"
#include "support/node_reactions.hpp"

namespace updp2p::gossip {
namespace {

using common::PeerId;
using common::StreamRng;
using testsupport::deliver;
using testsupport::sends;

GossipConfig query_config() {
  GossipConfig config;
  config.estimated_total_replicas = 50;
  config.fanout_fraction = 0.1;
  config.pull.no_update_timeout = 100;
  return config;
}

ReplicaNode make_node(std::uint32_t id, std::uint32_t population = 50) {
  ReplicaNode node(PeerId(id), query_config(), common::StreamRng(2'000 + id));
  std::vector<PeerId> view;
  for (std::uint32_t i = 0; i < population; ++i) {
    if (i != id) view.emplace_back(i);
  }
  node.bootstrap(view);
  return node;
}

TEST(NodeQuery, BeginQuerySendsRequests) {
  auto node = make_node(0);
  const auto started = node.begin_query("key", QueryRule::kHybrid, 3, 1);
  EXPECT_NE(started.nonce, 0u);
  EXPECT_EQ(started.messages.size(), 1u);  // one request, three replicas
  const auto requests = sends(started.messages);
  EXPECT_EQ(requests.size(), 3u);
  for (const auto& message : requests) {
    const auto* request = std::get_if<QueryRequest>(&message.payload);
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request->key, "key");
    EXPECT_EQ(request->nonce, started.nonce);
  }
  EXPECT_EQ(node.stats().queries_issued, 1u);
}

TEST(NodeQuery, NoncesAreUnique) {
  auto node = make_node(0);
  const auto a = node.begin_query("k", QueryRule::kMajority, 1, 1);
  const auto b = node.begin_query("k", QueryRule::kMajority, 1, 1);
  EXPECT_NE(a.nonce, b.nonce);
}

TEST(NodeQuery, RequestAnsweredWithVersionsAndConfidence) {
  auto holder = make_node(1);
  (void)holder.publish("key", "value", 1);
  const auto out =
      deliver(holder, PeerId(0), GossipPayload{QueryRequest{"key", 7}}, 2);
  ASSERT_EQ(out.size(), 1u);
  const auto* reply = std::get_if<QueryReply>(&out.front().payload);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->nonce, 7u);
  EXPECT_EQ(reply->key, "key");
  ASSERT_EQ(reply->versions.size(), 1u);
  EXPECT_EQ(reply->versions.front().payload, "value");
  EXPECT_TRUE(reply->confident);
  EXPECT_EQ(out.front().to, PeerId(0));
}

TEST(NodeQuery, UnknownKeyAnsweredEmpty) {
  auto node = make_node(1);
  const auto out =
      deliver(node, PeerId(0), GossipPayload{QueryRequest{"nope", 9}}, 1);
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(std::get<QueryReply>(out.front().payload).versions.empty());
}

TEST(NodeQuery, UnconfidentResponderAlsoPulls) {
  auto config = query_config();
  config.pull.no_update_timeout = 2;
  ReplicaNode node(PeerId(1), config, common::StreamRng(5));
  std::vector<PeerId> view{PeerId(0), PeerId(2), PeerId(3), PeerId(4)};
  node.bootstrap(view);
  // Round 50: long since any activity -> unconfident.
  const auto out =
      deliver(node, PeerId(0), GossipPayload{QueryRequest{"k", 1}}, 50);
  std::size_t replies = 0, pulls = 0;
  for (const auto& message : out) {
    replies += std::holds_alternative<QueryReply>(message.payload);
    pulls += std::holds_alternative<PullRequest>(message.payload);
  }
  EXPECT_EQ(replies, 1u);
  EXPECT_GT(pulls, 0u);
  // And the reply advertises the lack of confidence.
  for (const auto& message : out) {
    if (const auto* reply = std::get_if<QueryReply>(&message.payload)) {
      EXPECT_FALSE(reply->confident);
    }
  }
}

TEST(NodeQuery, EndToEndResolution) {
  auto issuer = make_node(0, 4);
  auto holder1 = make_node(1, 4);
  auto holder2 = make_node(2, 4);
  (void)holder1.publish("key", "v1", 1);
  // holder2 learns v1, then writes v2 on top.
  const auto push = holder1.publish("key2-warmup", "x", 1);  // unrelated
  (void)push;
  for (auto& value : holder1.store().missing_given(holder2.store().summary())) {
    holder2.store().apply(std::move(value));
  }
  (void)holder2.publish("key", "v2", 2);

  const auto started = issuer.begin_query("key", QueryRule::kLatestVersion,
                                          3, 3);
  // Deliver requests to their targets; feed replies back to the issuer.
  std::size_t answered = 0;
  for (const auto& request : sends(started.messages)) {
    ReplicaNode* target = nullptr;
    if (request.to == PeerId(1)) target = &holder1;
    if (request.to == PeerId(2)) target = &holder2;
    if (target == nullptr) continue;  // peer 3 does not exist here
    const auto replies =
        deliver(*target, PeerId(0), request.payload, 4);
    for (const auto& reply : replies) {
      if (std::holds_alternative<QueryReply>(reply.payload)) {
        (void)deliver(issuer, request.to, reply.payload, 4);
        ++answered;
      }
    }
  }
  ASSERT_GE(answered, 2u);

  // All replies are in (or will time out); poll after the timeout window.
  const auto outcome = issuer.poll_query(started.nonce, 10);
  EXPECT_TRUE(outcome.complete);
  ASSERT_TRUE(outcome.value.has_value());
  EXPECT_EQ(outcome.value->payload, "v2");  // causally newest wins
}

TEST(NodeQuery, PollBeforeRepliesIsIncomplete) {
  auto node = make_node(0);
  const auto started = node.begin_query("key", QueryRule::kHybrid, 3, 5);
  const auto outcome = node.poll_query(started.nonce, 6);
  EXPECT_FALSE(outcome.complete);
  EXPECT_EQ(outcome.replies, 0u);
  EXPECT_EQ(outcome.asked, 3u);
}

TEST(NodeQuery, TimesOutWithPartialAnswers) {
  auto issuer = make_node(0);
  auto holder = make_node(1);
  (void)holder.publish("key", "value", 1);
  const auto started = issuer.begin_query("key", QueryRule::kHybrid, 3, 5);
  // Only one target answers.
  const auto replies = deliver(
      holder, PeerId(0), GossipPayload{QueryRequest{"key", started.nonce}}, 6);
  (void)deliver(issuer, PeerId(1), replies.front().payload, 6);
  // Before the timeout: incomplete. After: resolved with what arrived.
  EXPECT_FALSE(issuer.poll_query(started.nonce, 7).complete);
  const auto outcome = issuer.poll_query(started.nonce, 9);
  EXPECT_TRUE(outcome.complete);
  ASSERT_TRUE(outcome.value.has_value());
  EXPECT_EQ(outcome.value->payload, "value");
}

TEST(NodeQuery, ConsumedQueryPollsEmpty) {
  auto node = make_node(0);
  const auto started = node.begin_query("key", QueryRule::kHybrid, 2, 1);
  (void)node.poll_query(started.nonce, 100);  // times out -> consumed
  const auto again = node.poll_query(started.nonce, 100);
  EXPECT_TRUE(again.complete);
  EXPECT_FALSE(again.value.has_value());
  EXPECT_EQ(again.asked, 0u);
}

TEST(NodeQuery, LateAndForeignRepliesIgnored) {
  auto node = make_node(0);
  QueryReply bogus;
  bogus.key = "key";
  bogus.nonce = 424242;  // no such query
  (void)deliver(node, PeerId(1), GossipPayload{bogus}, 1);
  EXPECT_EQ(node.stats().query_replies_received, 1u);  // counted, ignored

  // Mismatched key for a real nonce is ignored too.
  const auto started = node.begin_query("key", QueryRule::kHybrid, 2, 1);
  QueryReply wrong_key;
  wrong_key.key = "other";
  wrong_key.nonce = started.nonce;
  (void)deliver(node, PeerId(1), GossipPayload{wrong_key}, 1);
  EXPECT_EQ(node.poll_query(started.nonce, 1).replies, 0u);
}

TEST(NodeQuery, LocalStoreParticipatesInVote) {
  // The issuer holds the only copy; zero network replies still resolve.
  auto node = make_node(0);
  (void)node.publish("key", "mine", 1);
  const auto started = node.begin_query("key", QueryRule::kMajority, 2, 2);
  const auto outcome = node.poll_query(started.nonce, 10);  // timed out
  EXPECT_TRUE(outcome.complete);
  ASSERT_TRUE(outcome.value.has_value());
  EXPECT_EQ(outcome.value->payload, "mine");
}

TEST(LocalWinner, EmptyAndTombstoneCases) {
  EXPECT_FALSE(local_winner({}).has_value());
  version::VersionedValue tombstone;
  tombstone.key = "k";
  tombstone.tombstone = true;
  tombstone.history.increment(PeerId(1));
  const std::vector<version::VersionedValue> only_tombstone{tombstone};
  EXPECT_FALSE(local_winner(only_tombstone).has_value());
}

TEST(LocalWinner, PicksCausallyFreshest) {
  version::VersionedValue old_version;
  old_version.key = "k";
  old_version.payload = "old";
  old_version.history.increment(PeerId(1));
  version::VersionedValue new_version = old_version;
  new_version.payload = "new";
  new_version.history.increment(PeerId(1));
  const std::vector<version::VersionedValue> versions{old_version,
                                                      new_version};
  const auto winner = local_winner(versions);
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(winner->payload, "new");
}

}  // namespace
}  // namespace updp2p::gossip

#include "gossip/messages.hpp"

#include <gtest/gtest.h>

#include "gossip/codec.hpp"

namespace updp2p::gossip {
namespace {

using common::PeerId;

version::VersionedValue value_with_history(int entries) {
  version::VersionedValue value;
  value.key = "key";  // 3 bytes
  for (int i = 0; i < entries; ++i) {
    value.history.increment(PeerId(static_cast<std::uint32_t>(i)));
  }
  return value;
}

// Wire sizes the message-length analysis (§4.2, §5) rests on, read off
// real encodings.

TEST(EncodedSize, PushGrowsWithFloodingList) {
  // The flooding list travels in its compressed encoding: consecutive ids
  // cost one delta byte each.
  PushMessage small{value_with_history(1), {PeerId(1)}, 0};
  PushMessage large{value_with_history(1),
                    {PeerId(1), PeerId(2), PeerId(3)}, 0};
  const auto small_size = encode(GossipPayload{small}).size();
  const auto large_size = encode(GossipPayload{large}).size();
  EXPECT_EQ(large_size - small_size, 2u);  // two extra gap-1 varints
}

TEST(EncodedSize, DenseFloodingListCompressesBelowPerEntryPricing) {
  // §5's message-length analysis prices an uncapped list at alpha bytes per
  // entry; the chunked encoding beats that by construction once ids are
  // dense. 5'000 consecutive ids: ~1 byte each vs alpha = 10.
  PushMessage push{value_with_history(1), {}, 0};
  for (std::uint32_t i = 0; i < 5'000; ++i) {
    push.flooding_list.insert(PeerId(i));
  }
  PushMessage empty_list{value_with_history(1), {}, 0};
  const auto list_bytes = encode(GossipPayload{push}).size() -
                          encode(GossipPayload{empty_list}).size();
  EXPECT_LT(list_bytes, 5'000u * 10u / 5u);  // >5x under per-entry pricing
}

TEST(EncodedSize, AckIsTiny) {
  // frame header 4 + digest 16.
  EXPECT_EQ(encode(GossipPayload{AckMessage{}}).size(), 4u + 16u);
}

TEST(PayloadKind, NamesAllAlternatives) {
  EXPECT_STREQ(payload_kind(GossipPayload{PushMessage{}}), "push");
  EXPECT_STREQ(payload_kind(GossipPayload{PullRequest{}}), "pull-request");
  EXPECT_STREQ(payload_kind(GossipPayload{PullResponse{}}), "pull-response");
  EXPECT_STREQ(payload_kind(GossipPayload{AckMessage{}}), "ack");
}

}  // namespace
}  // namespace updp2p::gossip

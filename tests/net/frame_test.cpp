#include "net/frame.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace updp2p::net {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(Frame, RoundTripPreservesSourceAndPayload) {
  const auto payload = bytes_of({1, 2, 3, 250, 0, 7});
  std::vector<std::byte> wire;
  frame_datagram(common::PeerId(1234), payload, wire);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());

  const auto parsed = parse_frame(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->from, common::PeerId(1234));
  EXPECT_TRUE(std::equal(parsed->payload.begin(), parsed->payload.end(),
                         payload.begin(), payload.end()));
}

TEST(Frame, RoundTripEmptyPayload) {
  std::vector<std::byte> wire;
  frame_datagram(common::PeerId(0), {}, wire);
  const auto parsed = parse_frame(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->from, common::PeerId(0));
  EXPECT_TRUE(parsed->payload.empty());
}

TEST(Frame, ReusesOutputBuffer) {
  std::vector<std::byte> wire = bytes_of({9, 9, 9, 9, 9, 9, 9, 9, 9, 9});
  frame_datagram(common::PeerId(7), bytes_of({42}), wire);
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + 1);
  EXPECT_EQ(wire.back(), std::byte{42});
}

TEST(Frame, RejectsShortBuffer) {
  std::vector<std::byte> wire;
  frame_datagram(common::PeerId(5), {}, wire);
  for (std::size_t len = 0; len < kFrameHeaderBytes; ++len) {
    EXPECT_FALSE(
        parse_frame(std::span<const std::byte>(wire.data(), len)).has_value())
        << "length " << len;
  }
}

TEST(Frame, RejectsBadMagic) {
  std::vector<std::byte> wire;
  frame_datagram(common::PeerId(5), {}, wire);
  auto bad = wire;
  bad[0] = std::byte{0x00};
  EXPECT_FALSE(parse_frame(bad).has_value());
  bad = wire;
  bad[1] = std::byte{0xFF};
  EXPECT_FALSE(parse_frame(bad).has_value());
}

TEST(Frame, RejectsUnknownVersionAndFlags) {
  std::vector<std::byte> wire;
  frame_datagram(common::PeerId(5), {}, wire);
  auto bad = wire;
  bad[2] = static_cast<std::byte>(kFrameVersion + 1);
  EXPECT_FALSE(parse_frame(bad).has_value());
  bad = wire;
  bad[3] = std::byte{1};  // reserved flags must be zero
  EXPECT_FALSE(parse_frame(bad).has_value());
}

TEST(Frame, RejectsOutOfRangeSourceId) {
  // Hand-build a header whose id field is kMaxFramePeerId (first rejected
  // value) — frame_datagram cannot produce it without an invalid PeerId.
  std::vector<std::byte> wire;
  frame_datagram(common::PeerId(0), {}, wire);
  const auto id = static_cast<std::uint32_t>(kMaxFramePeerId);
  for (int i = 0; i < 4; ++i) {
    wire[4 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((id >> (8 * i)) & 0xFF);
  }
  EXPECT_FALSE(parse_frame(wire).has_value());

  // One below the bound parses.
  const auto ok_id = static_cast<std::uint32_t>(kMaxFramePeerId - 1);
  for (int i = 0; i < 4; ++i) {
    wire[4 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((ok_id >> (8 * i)) & 0xFF);
  }
  const auto parsed = parse_frame(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->from.value(), ok_id);
}

TEST(Frame, RandomBytesNeverCrashAndValidFramesSurviveNoise) {
  common::StreamRng rng(0xF4A3);
  std::vector<std::byte> buffer;
  for (int trial = 0; trial < 20'000; ++trial) {
    const std::size_t len = rng.uniform_int(0, 64);
    buffer.clear();
    for (std::size_t i = 0; i < len; ++i) {
      buffer.push_back(static_cast<std::byte>(rng.uniform_int(0, 255)));
    }
    // Must not crash; any accepted frame must satisfy the invariants.
    if (const auto parsed = parse_frame(buffer)) {
      EXPECT_LT(parsed->from.value(), kMaxFramePeerId);
      EXPECT_EQ(parsed->payload.size(), buffer.size() - kFrameHeaderBytes);
    }
  }
}

}  // namespace
}  // namespace updp2p::net

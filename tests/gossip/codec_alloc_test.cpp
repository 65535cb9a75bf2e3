// Bounds what the codec's decoders allocate. The tests count allocations
// by replacing the global operator new, which applies to their whole
// binary; they live in a binary of their own so the replacement does not
// hide new/delete mismatches from the sanitizers in the other gossip
// tests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <optional>
#include <utility>

#include "gossip/codec.hpp"
#include "support/value_bytes.hpp"

// Allocation accounting for the tests that bound what a decode allocates:
// every operator new in this test binary goes through malloc here, and the
// calls and bytes requested on a thread while its `tracking` flag is set
// are summed. The aligned forms keep their defaults (a matching pair).
namespace alloc_count {
thread_local bool tracking = false;
thread_local std::size_t calls = 0;
thread_local std::size_t bytes = 0;

void* allocate(std::size_t n) noexcept {
  if (tracking) {
    ++calls;
    bytes += n;
  }
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line, so the compiler does not pair an inlined free() with the
// operator new that produced the pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

/// Counts what `fn` allocates on this thread.
template <typename Fn>
std::pair<std::size_t, std::size_t> calls_and_bytes(Fn&& fn) {
  calls = 0;
  bytes = 0;
  tracking = true;
  fn();
  tracking = false;
  return {calls, bytes};
}
}  // namespace alloc_count

void* operator new(std::size_t n) {
  if (void* p = alloc_count::allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return alloc_count::allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return alloc_count::allocate(n);
}
void operator delete(void* p) noexcept { alloc_count::release(p); }
void operator delete[](void* p) noexcept { alloc_count::release(p); }
void operator delete(void* p, std::size_t) noexcept {
  alloc_count::release(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  alloc_count::release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  alloc_count::release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  alloc_count::release(p);
}

namespace updp2p::gossip {
namespace {

using testsupport::value_bytes;

TEST(CodecFuzz, HostileHistoryCountDoesNotAllocateByDeclaredCount) {
  // The declared count passes the frame-size check (at most one entry per
  // byte of the whole buffer, a 64 KiB payload included), but only three
  // entries, six bytes, follow before the buffer ends. Reserving by the
  // count would request 16 bytes per declared entry; the decoder may
  // allocate only what the value's strings and the entries it read need.
  constexpr std::size_t kPayload = 64 * 1024;
  constexpr std::size_t kDeclared = 60'000;
  WireBytes wire = value_bytes(kPayload, kDeclared, {{1, 1}, {2, 1}, {3, 1}});
  wire.resize(wire.size() - 9);  // cut the flags and written_at: truncated
  ASSERT_LE(kDeclared, wire.size());
  std::optional<version::VersionedValue> value;
  const auto [calls, bytes] = alloc_count::calls_and_bytes([&] {
    std::size_t offset = 0;
    value = decode_value(wire, offset);
  });
  EXPECT_FALSE(value.has_value());
  EXPECT_LT(bytes, kPayload + 4096)
      << calls << " allocations for " << kDeclared << " declared entries";
  EXPECT_LT(bytes, kDeclared * sizeof(version::VersionVector::Entry) / 8);
}

TEST(CodecFuzz, HostileValueCountDoesNotAllocateByDeclaredCount) {
  // Each frame declares one element per byte of the whole frame, which
  // passes the frame-size check, and is then cut off. Zero filler parses
  // as the smallest elements there are (28-byte values, 16-byte digests),
  // so the decoder reads as many as the bytes hold before it fails.
  // Reserving by the declared count would request 120 bytes per declared
  // value and 16 per digest; a rejected decode may allocate only a small
  // multiple of the frame's own length.
  constexpr std::size_t kFrame = 60 * 1024;
  const auto header = [](WireKind kind) {
    return WireBytes{std::byte{0xD5}, std::byte{0x2B},
                     static_cast<std::byte>(kCodecVersion),
                     static_cast<std::byte>(kind)};
  };
  WireBytes pull_request = header(WireKind::kPullRequest);
  put_varint(pull_request, 0);  // empty summary
  WireBytes pull_response = header(WireKind::kPullResponse);
  put_varint(pull_response, 0);  // empty summary
  pull_response.push_back(std::byte{1});  // confident
  WireBytes query_reply = header(WireKind::kQueryReply);
  put_varint(query_reply, 1);
  query_reply.push_back(std::byte{'k'});
  put_varint(query_reply, 7);  // nonce
  query_reply.push_back(std::byte{1});  // confident
  for (WireBytes* frame : {&pull_request, &pull_response, &query_reply}) {
    put_varint(*frame, kFrame);
    frame->resize(kFrame, std::byte{0});
    const auto kind = probe_frame(*frame);
    ASSERT_TRUE(kind.has_value());
    std::optional<GossipPayload> decoded;
    const auto [calls, bytes] =
        alloc_count::calls_and_bytes([&] { decoded = decode(*frame); });
    EXPECT_FALSE(decoded.has_value());
    EXPECT_LT(bytes, 8 * kFrame)
        << "kind " << static_cast<int>(kind->kind) << ": " << calls
        << " allocations";
  }
}

TEST(CodecFuzz, WarmPeerSetDecodeAllocatesNothing) {
  // Array chunks, a bitmap chunk and a far chunk: once a set has decoded
  // a list, decoding the same shape again reuses its parked buffers.
  common::ChunkedPeerSet list;
  for (std::uint32_t id = 0; id < 10'000; id += 5) {
    list.insert(common::PeerId(id));
  }
  for (std::uint32_t i = 0; i < 5'000; ++i) {
    list.insert(common::PeerId(65'536 + 13 * i));
  }
  list.insert(common::PeerId(200'000'000));
  WireBytes wire;
  encode_peer_set(wire, list);
  common::ChunkedPeerSet target;
  for (int warm = 0; warm < 2; ++warm) {
    std::size_t offset = 0;
    ASSERT_TRUE(decode_peer_set(wire, offset, target));
  }
  bool ok = false;
  const auto [calls, bytes] = alloc_count::calls_and_bytes([&] {
    std::size_t offset = 0;
    ok = decode_peer_set(wire, offset, target);
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(target, list);
  EXPECT_EQ(calls, 0u) << bytes << " bytes";
}

}  // namespace
}  // namespace updp2p::gossip

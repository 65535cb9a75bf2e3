// Bounds the frame copies PeerRuntime makes for one fan-out. The test
// counts allocations by replacing the global operator new, which applies
// to its whole binary; it lives in a binary of its own so the replacement
// does not hide new/delete mismatches from the sanitizers in the other
// runtime tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gossip/node.hpp"
#include "net/transport.hpp"
#include "runtime/peer_runtime.hpp"
#include "version/version_id.hpp"

// Allocation accounting: every operator new in this test binary goes
// through malloc here, and the sizes requested on a thread while its
// `tracking` flag is set are recorded. The aligned forms keep their
// defaults (a matching pair).
namespace alloc_sizes {
constexpr std::size_t kCapacity = 4096;
thread_local bool tracking = false;
thread_local std::size_t recorded = 0;
thread_local std::array<std::size_t, kCapacity> sizes{};

void* allocate(std::size_t n) noexcept {
  if (tracking) {
    if (recorded < kCapacity) sizes[recorded] = n;
    ++recorded;
  }
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line, so the compiler does not pair an inlined free() with the
// operator new that produced the pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

/// Records the size of everything `fn` allocates on this thread; returns
/// how many allocations it made.
template <typename Fn>
std::size_t record(Fn&& fn) {
  recorded = 0;
  tracking = true;
  fn();
  tracking = false;
  return recorded;
}

/// Recorded allocations of at least `bytes`.
std::size_t at_least(std::size_t bytes) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < std::min(recorded, kCapacity); ++i) {
    if (sizes[i] >= bytes) ++count;
  }
  return count;
}

/// Recorded allocations of exactly `bytes`: a copy of a frame of that
/// length allocates exactly its length.
std::size_t exactly(std::size_t bytes) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < std::min(recorded, kCapacity); ++i) {
    if (sizes[i] == bytes) ++count;
  }
  return count;
}
}  // namespace alloc_sizes

void* operator new(std::size_t n) {
  if (void* p = alloc_sizes::allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return alloc_sizes::allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return alloc_sizes::allocate(n);
}
void operator delete(void* p) noexcept { alloc_sizes::release(p); }
void operator delete[](void* p) noexcept { alloc_sizes::release(p); }
void operator delete(void* p, std::size_t) noexcept {
  alloc_sizes::release(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  alloc_sizes::release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  alloc_sizes::release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  alloc_sizes::release(p);
}

namespace updp2p::runtime {
namespace {

/// Records only the size of each datagram a runtime sends, into storage
/// reserved up front, so sending allocates nothing.
class SizeTransport final : public net::Transport {
 public:
  explicit SizeTransport(common::PeerId self) : self_(self) {
    sizes.reserve(64);
  }

  [[nodiscard]] common::PeerId self() const noexcept override { return self_; }
  bool send(common::PeerId /*to*/,
            std::span<const std::byte> payload) override {
    sizes.push_back(payload.size());
    return true;
  }
  std::size_t drain(std::vector<net::InboundDatagram>& /*out*/) override {
    return 0;
  }
  void set_listening(bool /*listening*/) override {}
  [[nodiscard]] bool listening() const noexcept override { return true; }
  [[nodiscard]] const net::TransportStats& stats() const noexcept override {
    return stats_;
  }

  std::vector<std::size_t> sizes;

 private:
  common::PeerId self_;
  net::TransportStats stats_;
};

TEST(PeerRuntime, FanOutRunRetainsOneFrameCopy) {
  // One publish of a 1 KiB value to 11 targets with acks on: the message
  // is encoded once, every target is sent from that frame, and the 11
  // retries share one copy of it. So only two allocations can hold a
  // whole frame: the encode buffer and the shared copy.
  constexpr std::uint32_t kPeers = 12;
  RuntimeConfig config;
  config.gossip.fanout_fraction = 1.0;
  config.gossip.estimated_total_replicas = kPeers;
  config.gossip.acks.enabled = true;
  std::vector<common::PeerId> view;
  for (std::uint32_t i = 1; i < kPeers; ++i) view.emplace_back(i);
  SizeTransport transport(common::PeerId(0));
  PeerRuntime runtime(config, transport);
  runtime.bootstrap(view);

  std::string value(1024, 'v');
  std::optional<version::VersionId> id;
  const std::size_t allocations = alloc_sizes::record(
      [&] { id = runtime.publish("key", std::move(value)); });
  ASSERT_TRUE(id.has_value());
  ASSERT_LE(allocations, alloc_sizes::kCapacity);
  ASSERT_EQ(transport.sizes.size(), kPeers - 1);
  EXPECT_EQ(runtime.pending_retries(), kPeers - 1);
  const std::size_t frame = transport.sizes.front();
  EXPECT_GT(frame, 1024u);
  EXPECT_LE(alloc_sizes::at_least(frame), 2u);
  // Every send but the one that copied the frame allocated no buffer.
  EXPECT_EQ(runtime.stats().frames_reused, kPeers - 2);

  // A reconnect pull to three contacts with retries on is one message as
  // well: one frame copy for its three retries, not one per contact. 255
  // more stored versions make the request a few KiB.
  gossip::ReplicaNode writer(common::PeerId(99), config.gossip,
                             common::StreamRng(7));
  for (int i = 0; i < 255; ++i) {
    (void)writer.publish("k" + std::to_string(i), "v", 0);
  }
  runtime.node().import_durable_state(common::ChunkedPeerSet{},
                                      writer.store().all_versions());
  runtime.go_offline();
  const std::uint64_t reused = runtime.stats().frames_reused;
  ASSERT_LE(alloc_sizes::record([&] { runtime.go_online(); }),
            alloc_sizes::kCapacity);
  ASSERT_EQ(transport.sizes.size(), kPeers - 1 + 3);
  EXPECT_EQ(runtime.pending_retries(), 3u);
  const std::size_t pull = transport.sizes.back();
  EXPECT_GT(pull, 255u * 16u);
  EXPECT_EQ(alloc_sizes::exactly(pull), 1u);
  EXPECT_EQ(runtime.stats().frames_reused - reused, 2u);
}

}  // namespace
}  // namespace updp2p::runtime

// In-process UDP loopback tests: two transports on ephemeral 127.0.0.1
// ports exchanging real datagrams through the kernel. Waits use
// wait_readable (poll with timeout), never bare sleeps.
#include "net/udp_transport.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <string>

#include "net/frame.hpp"

namespace updp2p::net {
namespace {

std::vector<std::byte> bytes_of(const std::string& text) {
  std::vector<std::byte> out;
  for (const char c : text) out.push_back(static_cast<std::byte>(c));
  return out;
}

std::string text_of(const DatagramBytes& bytes) {
  std::string out;
  for (const std::byte b : bytes) out.push_back(static_cast<char>(b));
  return out;
}

/// Opens a transport on an ephemeral port; aborts the test on failure.
std::unique_ptr<UdpTransport> open_ephemeral(common::PeerId self) {
  UdpTransportConfig config;
  config.self = self;
  config.bind_port = 0;
  std::string error;
  auto transport = UdpTransport::open(config, &error);
  EXPECT_NE(transport, nullptr) << error;
  return transport;
}

/// Drains until at least `want` datagrams arrive or ~2s passes.
std::size_t drain_some(UdpTransport& transport,
                       std::vector<InboundDatagram>& inbox,
                       std::size_t want) {
  for (int spins = 0; spins < 200 && inbox.size() < want; ++spins) {
    (void)transport.wait_readable(10);
    (void)transport.drain(inbox);
  }
  return inbox.size();
}

TEST(UdpTransport, RoundTripOverLoopback) {
  auto a = open_ephemeral(common::PeerId(1));
  auto b = open_ephemeral(common::PeerId(2));
  ASSERT_TRUE(a && b);
  a->add_route({common::PeerId(2), "127.0.0.1", b->bound_port()});
  b->add_route({common::PeerId(1), "127.0.0.1", a->bound_port()});

  ASSERT_TRUE(a->send(common::PeerId(2), bytes_of("ping")));
  std::vector<InboundDatagram> inbox;
  ASSERT_EQ(drain_some(*b, inbox, 1), 1u);
  EXPECT_EQ(inbox[0].from, common::PeerId(1));
  EXPECT_EQ(text_of(inbox[0].bytes), "ping");

  ASSERT_TRUE(b->send(common::PeerId(1), bytes_of("pong")));
  inbox.clear();
  ASSERT_EQ(drain_some(*a, inbox, 1), 1u);
  EXPECT_EQ(inbox[0].from, common::PeerId(2));
  EXPECT_EQ(text_of(inbox[0].bytes), "pong");

  EXPECT_EQ(a->stats().datagrams_sent, 1u);
  EXPECT_EQ(a->stats().datagrams_received, 1u);
}

TEST(UdpTransport, SendWithoutRouteFails) {
  auto a = open_ephemeral(common::PeerId(1));
  ASSERT_TRUE(a);
  EXPECT_FALSE(a->send(common::PeerId(42), bytes_of("void")));
  EXPECT_EQ(a->stats().send_no_route, 1u);
}

TEST(UdpTransport, DatagramLimitIsTheLargestIpv4Payload) {
  auto a = open_ephemeral(common::PeerId(1));
  auto b = open_ephemeral(common::PeerId(2));
  ASSERT_TRUE(a && b);
  a->add_route({common::PeerId(2), "127.0.0.1", b->bound_port()});
  const std::size_t largest = kMaxDatagramBytes - kFrameHeaderBytes;

  // A frame of exactly kMaxDatagramBytes crosses the kernel whole.
  const std::vector<std::byte> at_limit(largest, std::byte{0x5A});
  ASSERT_TRUE(a->send(common::PeerId(2), at_limit));
  std::vector<InboundDatagram> inbox;
  ASSERT_EQ(drain_some(*b, inbox, 1), 1u);
  EXPECT_EQ(inbox[0].bytes, at_limit);

  // One byte more is refused before the kernel sees it, and counted...
  const std::vector<std::byte> over(largest + 1, std::byte{0x5A});
  EXPECT_FALSE(a->send(common::PeerId(2), over));
  EXPECT_EQ(a->stats().send_errors, 1u);
  EXPECT_EQ(a->stats().datagrams_sent, 1u);

  // ...and the kernel would refuse it too: IPv4 carries no larger UDP
  // payload.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(b->bound_port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  const std::vector<std::byte> raw(kMaxDatagramBytes + 1);
  const ssize_t sent =
      ::sendto(a->fd(), raw.data(), raw.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  const int error = errno;
  EXPECT_LT(sent, 0);
  EXPECT_EQ(error, EMSGSIZE);
}

TEST(UdpTransport, GarbageDatagramIsRejectedNotDelivered) {
  auto a = open_ephemeral(common::PeerId(1));
  auto b = open_ephemeral(common::PeerId(2));
  ASSERT_TRUE(a && b);

  // Send raw unframed bytes straight at b's socket.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(b->bound_port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  const std::string garbage = "definitely not a frame";
  ASSERT_GT(::sendto(a->fd(), garbage.data(), garbage.size(), 0,
                     reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);

  std::vector<InboundDatagram> inbox;
  for (int spins = 0; spins < 100 && b->stats().frames_rejected == 0;
       ++spins) {
    (void)b->wait_readable(10);
    (void)b->drain(inbox);
  }
  EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(b->stats().frames_rejected, 1u);
}

TEST(UdpTransport, OfflineWindowDropsKernelBufferedDatagrams) {
  auto a = open_ephemeral(common::PeerId(1));
  auto b = open_ephemeral(common::PeerId(2));
  ASSERT_TRUE(a && b);
  a->add_route({common::PeerId(2), "127.0.0.1", b->bound_port()});

  b->set_listening(false);
  ASSERT_TRUE(a->send(common::PeerId(2), bytes_of("smuggled?")));

  // Drain while offline: the datagram is read off the socket and dropped.
  std::vector<InboundDatagram> inbox;
  for (int spins = 0; spins < 100 && b->stats().dropped_offline == 0;
       ++spins) {
    (void)b->wait_readable(10);
    (void)b->drain(inbox);
  }
  EXPECT_EQ(b->stats().dropped_offline, 1u);
  EXPECT_TRUE(inbox.empty());

  // Back online: nothing left over from the offline window.
  b->set_listening(true);
  (void)b->wait_readable(20);
  EXPECT_EQ(b->drain(inbox), 0u);
}

TEST(UdpTransport, OpenReportsBindConflict) {
  auto a = open_ephemeral(common::PeerId(1));
  ASSERT_TRUE(a);
  UdpTransportConfig config;
  config.self = common::PeerId(2);
  config.bind_port = a->bound_port();  // already taken
  std::string error;
  auto clash = UdpTransport::open(config, &error);
  EXPECT_EQ(clash, nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(UdpTransport, OpenRejectsOutOfRangeSelfId) {
  UdpTransportConfig config;
  config.self =
      common::PeerId(static_cast<std::uint32_t>(kMaxFramePeerId));
  std::string error;
  EXPECT_EQ(UdpTransport::open(config, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(UdpTransport, WaitReadableTimesOutQuietly) {
  auto a = open_ephemeral(common::PeerId(1));
  ASSERT_TRUE(a);
  EXPECT_FALSE(a->wait_readable(1));
  EXPECT_FALSE(a->wait_readable(0));
}

/// RAII SIGALRM storm: an interval timer interrupting every blocking
/// syscall every few milliseconds, installed WITHOUT SA_RESTART so
/// poll/sendto/recv actually return EINTR. Restores the previous
/// disposition on destruction.
class SignalStorm {
 public:
  SignalStorm() {
    struct sigaction action{};
    action.sa_handler = [](int) {};
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // deliberately no SA_RESTART
    sigaction(SIGALRM, &action, &previous_);
    itimerval interval{};
    interval.it_interval.tv_usec = 2000;
    interval.it_value.tv_usec = 2000;
    setitimer(ITIMER_REAL, &interval, nullptr);
  }
  ~SignalStorm() {
    itimerval off{};
    setitimer(ITIMER_REAL, &off, nullptr);
    sigaction(SIGALRM, &previous_, nullptr);
  }

 private:
  struct sigaction previous_{};
};

// Regression: wait_readable used to treat poll()'s EINTR return as a
// timeout, so any signal (a harness reaping a child, an interval timer)
// silently cut the wait short. It must now hold the full deadline.
TEST(UdpTransport, WaitReadableSurvivesSignalInterruptions) {
  auto a = open_ephemeral(common::PeerId(1));
  ASSERT_TRUE(a);
  SignalStorm storm;

  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(a->wait_readable(250));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // ~125 interruptions landed inside this window; without the EINTR
  // retry the wait returns after the FIRST one (~2ms).
  EXPECT_GE(elapsed.count(), 200);

  // And a datagram still wakes the waiter under the storm.
  auto b = open_ephemeral(common::PeerId(2));
  ASSERT_TRUE(b);
  b->add_route({common::PeerId(1), "127.0.0.1", a->bound_port()});
  ASSERT_TRUE(b->send(common::PeerId(1), bytes_of("wake")));
  EXPECT_TRUE(a->wait_readable(2000));
  std::vector<InboundDatagram> inbox;
  ASSERT_EQ(drain_some(*a, inbox, 1), 1u);
  EXPECT_EQ(text_of(inbox[0].bytes), "wake");
}

// Regression: sendto is retried on EINTR and a kernel short write counts
// as send_short_writes (a drop), never as a silent success. Under the
// storm every datagram must still go out whole.
TEST(UdpTransport, SendDeliversEverythingUnderSignalStorm) {
  auto a = open_ephemeral(common::PeerId(1));
  auto b = open_ephemeral(common::PeerId(2));
  ASSERT_TRUE(a && b);
  a->add_route({common::PeerId(2), "127.0.0.1", b->bound_port()});
  SignalStorm storm;

  constexpr std::size_t kCount = 200;
  const std::vector<std::byte> payload = bytes_of(std::string(512, 'z'));
  std::size_t accepted = 0;
  std::vector<InboundDatagram> inbox;
  for (std::size_t i = 0; i < kCount; ++i) {
    if (a->send(common::PeerId(2), payload)) ++accepted;
    // Drain as we go so the receive buffer never overflows.
    (void)b->drain(inbox);
  }
  EXPECT_EQ(accepted, kCount);
  EXPECT_EQ(a->stats().send_errors, 0u);
  EXPECT_EQ(a->stats().send_short_writes, 0u);
  EXPECT_EQ(a->stats().datagrams_sent, kCount);
  EXPECT_EQ(drain_some(*b, inbox, kCount), kCount);
  for (const InboundDatagram& datagram : inbox) {
    EXPECT_EQ(datagram.bytes.size(), payload.size());
  }
}

}  // namespace
}  // namespace updp2p::net

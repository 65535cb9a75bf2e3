#include "net/inproc_transport.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>

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

/// One delivered datagram: its text and the virtual time of the step that
/// delivered it.
using Arrival = std::pair<std::string, common::SimTime>;

/// Advances `network` to `until` in 1-ms steps, draining every endpoint in
/// `dests` after each.
std::vector<Arrival> arrivals(InprocNetwork& network,
                              std::initializer_list<InprocTransport*> dests,
                              common::SimTime until) {
  std::vector<Arrival> got;
  std::vector<InboundDatagram> inbox;
  const common::SimTime start = network.now();
  for (int step = 1; start + step * 0.001 <= until; ++step) {
    const common::SimTime now = start + step * 0.001;
    network.advance_to(now);
    for (InprocTransport* dest : dests) {
      inbox.clear();
      dest->drain(inbox);
      for (const auto& d : inbox) got.emplace_back(text_of(d.bytes), now);
    }
  }
  return got;
}

/// Draws from its chaos stream on link 1->3 only — a duplicate and an
/// extra delay at random — and leaves every other link alone.
class NoisyLinkPolicy final : public LinkFaultPolicy {
 public:
  Decision on_submit(common::PeerId from, common::PeerId to,
                     std::span<const std::byte> /*payload*/,
                     common::StreamRng& rng) override {
    Decision decision;
    if (from == common::PeerId(1) && to == common::PeerId(3)) {
      decision.copies = rng.bernoulli(0.5) ? 2 : 1;
      decision.extra_delay = 0.05 * rng.uniform01();
    }
    return decision;
  }
};

TEST(InprocNetwork, DeliversAfterLatency) {
  InprocNetworkConfig config;
  config.latency = std::make_shared<ConstantLatency>(0.1);
  InprocNetwork network(config);
  auto a = network.attach(common::PeerId(1));
  auto b = network.attach(common::PeerId(2));

  EXPECT_TRUE(a->send(common::PeerId(2), bytes_of("hi")));
  EXPECT_EQ(network.in_flight(), 1u);

  std::vector<InboundDatagram> inbox;
  network.advance_to(0.05);  // before the delay elapses
  EXPECT_EQ(b->drain(inbox), 0u);

  network.advance_to(0.1);
  ASSERT_EQ(b->drain(inbox), 1u);
  EXPECT_EQ(inbox[0].from, common::PeerId(1));
  EXPECT_EQ(text_of(inbox[0].bytes), "hi");
  EXPECT_EQ(network.stats().datagrams_delivered, 1u);
}

TEST(InprocNetwork, DeliveryOrderIsTimeThenSubmission) {
  // Uniform latency makes the two datagrams race; the schedule must still
  // be a pure function of the seed.
  InprocNetworkConfig config;
  config.latency = std::make_shared<UniformLatency>(0.01, 0.2);
  config.seed = 77;
  InprocNetwork network(config);
  auto a = network.attach(common::PeerId(1));
  auto b = network.attach(common::PeerId(2));
  auto c = network.attach(common::PeerId(3));

  ASSERT_TRUE(a->send(common::PeerId(3), bytes_of("from-a-0")));
  ASSERT_TRUE(b->send(common::PeerId(3), bytes_of("from-b-0")));
  ASSERT_TRUE(a->send(common::PeerId(3), bytes_of("from-a-1")));
  network.advance_to(1.0);

  std::vector<InboundDatagram> first;
  c->drain(first);
  ASSERT_EQ(first.size(), 3u);

  // An identically-seeded rebuild reproduces the exact arrival order.
  InprocNetwork network2(config);
  auto a2 = network2.attach(common::PeerId(1));
  auto b2 = network2.attach(common::PeerId(2));
  auto c2 = network2.attach(common::PeerId(3));
  ASSERT_TRUE(a2->send(common::PeerId(3), bytes_of("from-a-0")));
  ASSERT_TRUE(b2->send(common::PeerId(3), bytes_of("from-b-0")));
  ASSERT_TRUE(a2->send(common::PeerId(3), bytes_of("from-a-1")));
  network2.advance_to(1.0);

  std::vector<InboundDatagram> second;
  c2->drain(second);
  ASSERT_EQ(second.size(), 3u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(text_of(first[i].bytes), text_of(second[i].bytes)) << i;
    EXPECT_EQ(first[i].from, second[i].from) << i;
  }
}

TEST(InprocNetwork, LossIsDeterministicPerSeed) {
  InprocNetworkConfig config;
  config.loss_probability = 0.5;
  config.seed = 1234;
  config.latency = std::make_shared<ConstantLatency>(0.01);

  const auto run = [&config] {
    InprocNetwork network(config);
    auto a = network.attach(common::PeerId(1));
    auto b = network.attach(common::PeerId(2));
    for (int i = 0; i < 200; ++i) {
      (void)a->send(common::PeerId(2), bytes_of(std::to_string(i)));
    }
    network.advance_to(1.0);
    std::vector<InboundDatagram> inbox;
    b->drain(inbox);
    std::vector<std::string> texts;
    for (const auto& d : inbox) texts.push_back(text_of(d.bytes));
    return texts;
  };

  const auto first = run();
  const auto second = run();
  EXPECT_GT(first.size(), 50u);   // some survive
  EXPECT_LT(first.size(), 150u);  // some are lost
  EXPECT_EQ(first, second);
}

TEST(InprocNetwork, IndependentLinksDoNotPerturbEachOther) {
  // Counter-based per-link streams: traffic on link 1->3, and a policy
  // drawing from that link's chaos stream, must not change what happens
  // on link 1->2.
  InprocNetworkConfig config;
  config.loss_probability = 0.3;
  config.seed = 99;
  config.latency = std::make_shared<UniformLatency>(0.01, 0.1);

  const auto run = [&config](bool extra_traffic, bool noisy_policy) {
    InprocNetwork network(config);
    NoisyLinkPolicy policy;
    if (noisy_policy) network.set_link_policy(&policy);
    auto a = network.attach(common::PeerId(1));
    auto b = network.attach(common::PeerId(2));
    auto c = network.attach(common::PeerId(3));
    for (int i = 0; i < 100; ++i) {
      (void)a->send(common::PeerId(2), bytes_of("x" + std::to_string(i)));
      if (extra_traffic) {
        (void)a->send(common::PeerId(3), bytes_of("noise"));
      }
    }
    std::vector<Arrival> got = arrivals(network, {b.get()}, 1.0);
    // The policy drew on link 1->3: it duplicated some of its datagrams.
    EXPECT_EQ(network.stats().datagrams_duplicated > 0, noisy_policy);
    network.set_link_policy(nullptr);
    (void)c;
    return got;
  };

  const std::vector<Arrival> quiet = run(false, false);
  EXPECT_GT(quiet.size(), 50u);
  EXPECT_EQ(run(true, false), quiet);
  EXPECT_EQ(run(true, true), quiet);
}

TEST(InprocNetwork, ReattachedPeerContinuesItsLinkStreams) {
  // A peer keeps its links' stream positions across detach and re-attach
  // (a killed and restarted peer): after the re-attach its links draw
  // where they left off, not from draw 0, so a batch sent after the
  // re-attach meets the losses and delays it meets on links that never
  // went away.
  InprocNetworkConfig config;
  config.loss_probability = 0.3;
  config.seed = 4242;
  config.latency = std::make_shared<UniformLatency>(0.01, 0.1);

  const auto run = [&config](bool reattach) {
    InprocNetwork network(config);
    auto a = network.attach(common::PeerId(1));
    auto b = network.attach(common::PeerId(2));
    const auto send_batch = [&](const std::string& tag) {
      for (int i = 0; i < 40; ++i) {
        const std::string n = std::to_string(i);
        (void)a->send(common::PeerId(2), bytes_of(tag + "-a" + n));
        (void)b->send(common::PeerId(1), bytes_of(tag + "-b" + n));
      }
    };
    send_batch("first");
    network.advance_to(1.0);
    std::vector<InboundDatagram> drained;
    a->drain(drained);
    b->drain(drained);
    EXPECT_EQ(network.in_flight(), 0u);
    if (reattach) {
      b.reset();
      b = network.attach(common::PeerId(2));
    }
    send_batch("second");
    return arrivals(network, {a.get(), b.get()}, 2.0);
  };

  const std::vector<Arrival> kept = run(false);
  EXPECT_GT(kept.size(), 40u);  // both directions delivered something
  EXPECT_LT(kept.size(), 76u);  // and lost something
  EXPECT_EQ(run(true), kept);
}

TEST(InprocNetwork, OfflineEndpointDropsInsteadOfQueueing) {
  InprocNetworkConfig config;
  config.latency = std::make_shared<ConstantLatency>(0.01);
  InprocNetwork network(config);
  auto a = network.attach(common::PeerId(1));
  auto b = network.attach(common::PeerId(2));

  b->set_listening(false);
  ASSERT_TRUE(a->send(common::PeerId(2), bytes_of("lost")));
  network.advance_to(0.5);
  b->set_listening(true);
  network.advance_to(1.0);

  std::vector<InboundDatagram> inbox;
  EXPECT_EQ(b->drain(inbox), 0u);  // never delivered later
  EXPECT_EQ(network.stats().dropped_offline, 1u);
  EXPECT_EQ(b->stats().dropped_offline, 1u);
}

TEST(InprocNetwork, SendToUnattachedPeerFails) {
  InprocNetwork network;
  auto a = network.attach(common::PeerId(1));
  EXPECT_FALSE(a->send(common::PeerId(9), bytes_of("void")));
  EXPECT_EQ(a->stats().send_no_route, 1u);
}

TEST(InprocNetwork, DetachedDestinationCountsDrop) {
  InprocNetworkConfig config;
  config.latency = std::make_shared<ConstantLatency>(0.1);
  InprocNetwork network(config);
  auto a = network.attach(common::PeerId(1));
  auto b = network.attach(common::PeerId(2));
  ASSERT_TRUE(a->send(common::PeerId(2), bytes_of("late")));
  b.reset();  // endpoint gone while the datagram is in flight
  network.advance_to(1.0);
  EXPECT_EQ(network.stats().dropped_detached, 1u);
}

TEST(InprocNetwork, OversizeDatagramIsRefusedLikeUdp) {
  // The frame UdpTransport would put on the wire (header plus payload) may
  // not exceed kMaxDatagramBytes, the largest UDP payload IPv4 carries;
  // InprocTransport refuses the same sends, counts them as send errors and
  // submits nothing.
  InprocNetwork network;
  auto a = network.attach(common::PeerId(1));
  auto b = network.attach(common::PeerId(2));
  const std::size_t largest = kMaxDatagramBytes - kFrameHeaderBytes;

  const std::vector<std::byte> over(largest + 1, std::byte{0x5A});
  EXPECT_FALSE(a->send(common::PeerId(2), over));
  EXPECT_EQ(a->stats().send_errors, 1u);
  EXPECT_EQ(a->stats().datagrams_sent, 0u);
  EXPECT_EQ(network.stats().datagrams_submitted, 0u);
  EXPECT_EQ(network.in_flight(), 0u);

  const std::vector<std::byte> at_limit(largest, std::byte{0x5A});
  EXPECT_TRUE(a->send(common::PeerId(2), at_limit));
  network.advance_to(1.0);
  std::vector<InboundDatagram> inbox;
  ASSERT_EQ(b->drain(inbox), 1u);
  EXPECT_EQ(inbox[0].bytes.size(), largest);
  EXPECT_EQ(a->stats().send_errors, 1u);
}

TEST(InprocNetwork, EndpointSurvivesNetworkDestruction) {
  std::unique_ptr<InprocTransport> orphan;
  {
    InprocNetwork network;
    orphan = network.attach(common::PeerId(1));
  }
  EXPECT_FALSE(orphan->send(common::PeerId(2), bytes_of("nowhere")));
  std::vector<InboundDatagram> inbox;
  EXPECT_EQ(orphan->drain(inbox), 0u);
}

}  // namespace
}  // namespace updp2p::net

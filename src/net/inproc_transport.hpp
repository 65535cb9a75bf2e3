// Deterministic in-process loopback transport.
//
// InprocNetwork is a virtual-time datagram switch: endpoints attach under a
// peer id, sends are scheduled with per-link loss and latency, and the
// driver advances virtual time explicitly. Every stochastic choice draws
// from a counter-based StreamRng keyed (seed, link, purpose), so the whole
// delivery schedule — order, losses, delays — is a pure function of
// (config, submitted datagrams) and independent of wall-clock, allocation
// addresses or iteration incidentals. That is what lets an
// InprocTransport-backed PeerRuntime run reproduce a pinned golden outcome
// while the very same runtime code drives real UDP sockets.
//
// Offline semantics mirror the paper's §3 model: a datagram that arrives
// while the destination is not listening is dropped (and counted), never
// queued — an offline peer must recover through the pull phase.
//
// A directed link costs 12 bytes: the draw positions of its loss, latency
// and chaos streams in a dense table indexed by the endpoints' attach
// order. Each submit rebuilds the link's streams from (seed, link,
// purpose) and seeks them to their stored positions (StreamRng::seek is
// O(1)), so no stream object is kept per link. A peer keeps its index for
// good, across detach and re-attach, which is what lets a restarted peer's
// links continue their streams. For N ids ever attached the table holds
// at most N² links: 3.1 MB at N = 512.
//
// Like UdpTransport, an endpoint refuses a datagram whose frame (payload
// plus the kFrameHeaderBytes header) exceeds kMaxDatagramBytes, so a
// virtual-time run meets the same size limit as a deployed one.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/latency.hpp"
#include "net/transport.hpp"

namespace updp2p::net {

class InprocTransport;

/// Chaos-layer hook consulted on every submitted datagram, before the base
/// per-link loss draw. A policy can swallow the datagram, fan it out as
/// duplicates, or add directional delay on top of the sampled latency —
/// enough to express partitions, asymmetric links and reorder/duplication
/// windows without touching the switch itself (src/chaos builds on this).
///
/// Determinism contract: the only randomness a policy may use is the
/// per-directed-link StreamRng handed in (its draw index advances only for
/// links the policy actually draws on, and persists from one submit to the
/// next), so installing a policy never perturbs the loss/latency streams
/// and a null policy leaves the schedule bit-identical to a hook-less
/// build.
class LinkFaultPolicy {
 public:
  struct Decision {
    bool drop = false;      ///< swallow the datagram (counted dropped_policy)
    unsigned copies = 1;    ///< deliveries to schedule; 2+ means duplicates
    common::SimTime extra_delay = 0.0;  ///< added to every copy's latency
  };

  virtual ~LinkFaultPolicy() = default;

  /// Called once per submit on a link with an attached destination. `rng`
  /// is the link's dedicated chaos stream (purpose-separated from the
  /// loss/latency streams).
  virtual Decision on_submit(common::PeerId from, common::PeerId to,
                             std::span<const std::byte> payload,
                             common::StreamRng& rng) = 0;
};

struct InprocNetworkConfig {
  /// Root seed; per-link streams are keyed (seed, from||to, purpose).
  std::uint64_t seed = 0x11fe;
  /// Independent per-datagram loss probability.
  double loss_probability = 0.0;
  /// One-way delay model; nullptr defaults to ConstantLatency(0.05).
  std::shared_ptr<LatencyModel> latency;
};

/// Switch-level counters (sender/receiver counters live in TransportStats).
struct InprocNetworkStats {
  std::uint64_t datagrams_submitted = 0;
  std::uint64_t datagrams_delivered = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_offline = 0;  ///< destination attached but not listening
  std::uint64_t dropped_detached = 0; ///< destination endpoint gone at delivery
  std::uint64_t dropped_policy = 0;   ///< swallowed by the LinkFaultPolicy
  std::uint64_t datagrams_duplicated = 0;  ///< extra copies a policy fanned out
};

class InprocNetwork {
 public:
  explicit InprocNetwork(InprocNetworkConfig config = {});
  ~InprocNetwork();
  InprocNetwork(const InprocNetwork&) = delete;
  InprocNetwork& operator=(const InprocNetwork&) = delete;

  /// Creates the endpoint for `self`. One endpoint per peer id; the network
  /// must outlive every endpoint it handed out. Endpoints start listening.
  [[nodiscard]] std::unique_ptr<InprocTransport> attach(common::PeerId self);

  /// Delivers every in-flight datagram due at or before `now` (in delivery
  /// order: time, then submission sequence) and advances virtual time.
  /// `now` must be monotone across calls.
  void advance_to(common::SimTime now);

  [[nodiscard]] common::SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return flights_.size();
  }
  [[nodiscard]] const InprocNetworkStats& stats() const noexcept {
    return stats_;
  }

  /// Installs (or clears, with nullptr) the chaos hook. Borrowed pointer:
  /// the policy must outlive the network or be cleared first. Swapping the
  /// policy mid-run is allowed — scenario phases do exactly that.
  void set_link_policy(LinkFaultPolicy* policy) noexcept { policy_ = policy; }

 private:
  friend class InprocTransport;

  struct Flight {
    common::SimTime at = 0.0;
    std::uint64_t seq = 0;  ///< submission order; total tiebreak at equal times
    common::PeerId from;
    common::PeerId to;
    DatagramBytes bytes;

    friend bool operator>(const Flight& a, const Flight& b) {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  /// A peer id that is or once was attached: its endpoint, null while
  /// detached, and its index into draws_, kept across re-attach.
  struct Endpoint {
    InprocTransport* transport = nullptr;
    std::uint32_t index = 0;
  };

  /// A directed link's stream positions: the draws taken so far from its
  /// loss, latency and chaos streams.
  struct LinkDraws {
    std::uint32_t loss = 0;
    std::uint32_t latency = 0;
    std::uint32_t chaos = 0;  ///< handed to the LinkFaultPolicy, never drawn here
  };

  /// Called by the sending endpoint, which passes its own index. Returns
  /// false when `to` has no attached endpoint (parity with UDP "no route").
  bool submit(std::uint32_t from_index, common::PeerId from, common::PeerId to,
              std::span<const std::byte> payload);
  void detach(common::PeerId self) noexcept;
  /// The link's stream for `purpose`, at draw `position`.
  [[nodiscard]] common::StreamRng link_stream(std::uint64_t link,
                                              std::uint64_t purpose,
                                              std::uint32_t position) const;

  InprocNetworkConfig config_;
  std::shared_ptr<LatencyModel> latency_;  ///< resolved (never null)
  std::priority_queue<Flight, std::vector<Flight>, std::greater<>> flights_;
  std::unordered_map<common::PeerId, Endpoint> endpoints_;
  /// draws_[from index][to index]; a row grows, to every index assigned so
  /// far, when its sender first reaches a destination past its end.
  std::vector<std::vector<LinkDraws>> draws_;
  LinkFaultPolicy* policy_ = nullptr;  ///< borrowed; nullptr = no chaos
  std::uint64_t next_seq_ = 0;
  common::SimTime now_ = 0.0;
  InprocNetworkStats stats_;
};

/// Endpoint handed out by InprocNetwork::attach.
class InprocTransport final : public Transport {
 public:
  ~InprocTransport() override;
  InprocTransport(const InprocTransport&) = delete;
  InprocTransport& operator=(const InprocTransport&) = delete;

  [[nodiscard]] common::PeerId self() const noexcept override { return self_; }
  /// Refuses (send_errors, false) a payload whose frame would exceed
  /// kMaxDatagramBytes, as UdpTransport does; nothing is submitted.
  bool send(common::PeerId to, std::span<const std::byte> payload) override;
  std::size_t drain(std::vector<InboundDatagram>& out) override;
  void set_listening(bool listening) override { listening_ = listening; }
  [[nodiscard]] bool listening() const noexcept override { return listening_; }
  [[nodiscard]] const TransportStats& stats() const noexcept override {
    return stats_;
  }

 private:
  friend class InprocNetwork;
  InprocTransport(InprocNetwork* network, common::PeerId self,
                  std::uint32_t index)
      : network_(network), self_(self), index_(index) {}

  InprocNetwork* network_;  ///< cleared if the network dies first
  common::PeerId self_;
  std::uint32_t index_;  ///< this peer's row in the network's draws_
  bool listening_ = true;
  std::vector<InboundDatagram> inbox_;
  TransportStats stats_;
};

}  // namespace updp2p::net

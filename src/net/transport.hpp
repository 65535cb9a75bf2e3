// Abstract datagram transport for deployed (non-simulated) peers.
//
// The simulators deliver GossipPayload objects in memory; a deployment
// moves *bytes* between processes/hosts. Transport is the seam between the
// two worlds: runtime::PeerRuntime encodes protocol messages with
// gossip::codec and hands the byte strings to a Transport, which only ever
// sees opaque datagrams. Two implementations ship:
//
//   * InprocTransport — deterministic in-process loopback with StreamRng-
//     driven loss and LatencyModel-driven delay (inproc_transport.hpp).
//   * UdpTransport — nonblocking UDP datagrams over a poll()-based event
//     loop (udp_transport.hpp).
//
// Both present the same best-effort, unordered, lossy datagram contract the
// paper assumes of its network ("communication … may employ any
// point-to-point mechanism"): a send can vanish silently, and reliability
// is the runtime layer's job (retry/timeout/backoff, runtime/retry.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace updp2p::net {

/// Raw datagram payload bytes (same representation the gossip codec uses).
using DatagramBytes = std::vector<std::byte>;

/// Largest datagram a transport carries, frame header included: the
/// largest UDP payload IPv4 can carry, 65 535 bytes less the 20-byte IPv4
/// header and the 8-byte UDP header. UdpTransport sends over IPv4, and
/// InprocTransport enforces the same limit so virtual-time runs meet it
/// too. A send over the limit is refused and counted in
/// TransportStats::send_errors.
inline constexpr std::size_t kMaxDatagramBytes = 65'535 - 20 - 8;

/// One received datagram, already stripped of transport framing.
struct InboundDatagram {
  common::PeerId from;
  DatagramBytes bytes;
};

/// Per-endpoint transport counters.
struct TransportStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t send_no_route = 0;    ///< destination not in the directory
  std::uint64_t send_errors = 0;      ///< OS-level failure or oversize frame
  std::uint64_t send_short_writes = 0;  ///< kernel truncated the datagram
  std::uint64_t frames_rejected = 0;  ///< inbound framing parse failures
  std::uint64_t dropped_offline = 0;  ///< received while not listening
};

/// Best-effort, unordered, lossy point-to-point datagram endpoint bound to
/// one peer identity. Not thread-safe; a PeerRuntime and its Transport live
/// on one event loop.
class Transport {
 public:
  virtual ~Transport() = default;

  /// The peer identity this endpoint sends as.
  [[nodiscard]] virtual common::PeerId self() const noexcept = 0;

  /// Queues `payload` for delivery to `to`. Returns false when the datagram
  /// was observably not sent (no route, OS error); true means "handed to
  /// the network", which still implies nothing about delivery.
  virtual bool send(common::PeerId to, std::span<const std::byte> payload) = 0;

  /// Appends every datagram received since the last drain to `out` and
  /// returns how many were appended. Non-blocking.
  virtual std::size_t drain(std::vector<InboundDatagram>& out) = 0;

  /// Hands a drained datagram's buffer back for reuse once the caller is
  /// done with its bytes. A pooling transport overrides this to park the
  /// capacity for the next drain(); the default drops the buffer. The
  /// contents are dead — only the allocation is recycled.
  virtual void recycle(DatagramBytes&& bytes) { (void)bytes; }

  /// Session control: while not listening the endpoint discards everything
  /// it receives (an offline peer loses messages, §3 — it must recover via
  /// the pull phase, never via a transport-level mailbox).
  virtual void set_listening(bool listening) = 0;
  [[nodiscard]] virtual bool listening() const noexcept = 0;

  [[nodiscard]] virtual const TransportStats& stats() const noexcept = 0;
};

}  // namespace updp2p::net

// Live UDP datagram transport.
//
// One nonblocking IPv4 UDP socket per peer, a static directory mapping
// peer ids to (host, port), and the fixed frame header of frame.hpp so the
// receiver learns the sender's peer identity. UDP's native contract —
// best-effort, unordered, silently lossy — is exactly the network model of
// the paper (§3), so no reliability is layered here; retry/timeout/backoff
// live in runtime::PeerRuntime where acks and pull responses can cancel
// them.
//
// The event loop integration is poll()-based: wait_readable(timeout) parks
// the caller until a datagram arrives or the timeout elapses, and drain()
// then pulls everything the kernel buffered without blocking.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "net/transport.hpp"

namespace updp2p::net {

/// Directory entry: where a peer id lives.
struct UdpPeerAddress {
  common::PeerId id;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct UdpTransportConfig {
  common::PeerId self;
  std::string bind_host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back via bound_port().
  std::uint16_t bind_port = 0;
  /// Static membership directory. Entries for unknown ids may be added
  /// later via add_route(); sends to ids with no entry fail (send_no_route).
  std::vector<UdpPeerAddress> peers;
};

class UdpTransport final : public Transport {
 public:
  /// Opens and binds the socket. Returns nullptr and fills `error` (when
  /// non-null) on failure — a daemon wants a clean exit message, not an
  /// abort, when a port is taken.
  [[nodiscard]] static std::unique_ptr<UdpTransport> open(
      const UdpTransportConfig& config, std::string* error = nullptr);

  ~UdpTransport() override;
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  [[nodiscard]] common::PeerId self() const noexcept override { return self_; }
  bool send(common::PeerId to, std::span<const std::byte> payload) override;
  std::size_t drain(std::vector<InboundDatagram>& out) override;
  /// Parks the buffer on the receive free list; the next drain() fills it
  /// in place of a fresh allocation. With a disciplined caller (PeerRuntime
  /// recycles every datagram it consumes) the steady-state receive path
  /// allocates nothing.
  void recycle(DatagramBytes&& bytes) override;
  /// While not listening, inbound datagrams are still read off the socket
  /// (so the kernel buffer cannot smuggle them across an offline window)
  /// but discarded and counted dropped_offline.
  void set_listening(bool listening) override { listening_ = listening; }
  [[nodiscard]] bool listening() const noexcept override { return listening_; }
  [[nodiscard]] const TransportStats& stats() const noexcept override {
    return stats_;
  }

  /// Registers (or updates) the address of a peer id.
  void add_route(const UdpPeerAddress& peer);

  /// The locally bound UDP port (useful with bind_port = 0).
  [[nodiscard]] std::uint16_t bound_port() const noexcept { return port_; }
  /// The raw socket fd, for callers composing their own poll/epoll set.
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Blocks up to `timeout_ms` for the socket to become readable. Returns
  /// true when readable, false on timeout. timeout_ms <= 0 polls without
  /// blocking.
  [[nodiscard]] bool wait_readable(int timeout_ms);

 private:
  struct Resolved {
    std::uint32_t ipv4_be = 0;  ///< network byte order
    std::uint16_t port_be = 0;  ///< network byte order
  };

  UdpTransport(common::PeerId self, int fd, std::uint16_t port)
      : self_(self), fd_(fd), port_(port) {}

  common::PeerId self_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  bool listening_ = true;
  std::unordered_map<common::PeerId, Resolved> routes_;
  std::vector<std::byte> frame_scratch_;  ///< reused send buffer
  std::vector<std::byte> recv_scratch_;   ///< reused receive buffer
  std::vector<DatagramBytes> recv_pool_;  ///< recycled delivery buffers
  TransportStats stats_;
};

}  // namespace updp2p::net

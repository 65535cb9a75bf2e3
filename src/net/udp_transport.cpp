#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/frame.hpp"

namespace updp2p::net {

namespace {

[[nodiscard]] std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

std::unique_ptr<UdpTransport> UdpTransport::open(
    const UdpTransportConfig& config, std::string* error) {
  if (!config.self.is_valid() ||
      config.self.value() >= kMaxFramePeerId) {
    set_error(error, "self peer id out of wire range");
    return nullptr;
  }
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    set_error(error, errno_string("socket"));
    return nullptr;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    set_error(error, errno_string("fcntl(O_NONBLOCK)"));
    ::close(fd);
    return nullptr;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config.bind_port);
  if (::inet_pton(AF_INET, config.bind_host.c_str(), &addr.sin_addr) != 1) {
    set_error(error, "bad bind host: " + config.bind_host);
    ::close(fd);
    return nullptr;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    set_error(error, errno_string("bind"));
    ::close(fd);
    return nullptr;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    set_error(error, errno_string("getsockname"));
    ::close(fd);
    return nullptr;
  }

  auto transport = std::unique_ptr<UdpTransport>(
      new UdpTransport(config.self, fd, ntohs(bound.sin_port)));
  for (const UdpPeerAddress& peer : config.peers) transport->add_route(peer);
  transport->recv_scratch_.resize(kMaxDatagramBytes);
  return transport;
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::add_route(const UdpPeerAddress& peer) {
  in_addr resolved{};
  if (::inet_pton(AF_INET, peer.host.c_str(), &resolved) != 1) return;
  routes_[peer.id] =
      Resolved{resolved.s_addr, htons(peer.port)};
}

bool UdpTransport::send(common::PeerId to, std::span<const std::byte> payload) {
  const auto route = routes_.find(to);
  if (route == routes_.end()) {
    ++stats_.send_no_route;
    return false;
  }
  frame_datagram(self_, payload, frame_scratch_);
  if (frame_scratch_.size() > kMaxDatagramBytes) {
    ++stats_.send_errors;
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = route->second.ipv4_be;
  addr.sin_port = route->second.port_be;
  ssize_t sent = -1;
  do {
    sent = ::sendto(fd_, frame_scratch_.data(), frame_scratch_.size(), 0,
                    reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (sent < 0 && errno == EINTR);
  if (sent < 0) {
    ++stats_.send_errors;
    return false;
  }
  if (static_cast<std::size_t>(sent) != frame_scratch_.size()) {
    // The kernel accepted a truncated datagram; the receiver's frame
    // parser will reject whatever arrives. A drop, not an OS error.
    ++stats_.send_short_writes;
    return false;
  }
  ++stats_.datagrams_sent;
  stats_.bytes_sent += frame_scratch_.size();
  return true;
}

std::size_t UdpTransport::drain(std::vector<InboundDatagram>& out) {
  std::size_t appended = 0;
  for (;;) {
    const ssize_t received =
        ::recv(fd_, recv_scratch_.data(), recv_scratch_.size(), 0);
    if (received < 0) {
      // EAGAIN/EWOULDBLOCK: drained. Anything else (EINTR from a signal,
      // ECONNREFUSED bounced back from a dead peer's port) is not a
      // received datagram; swallow and keep draining until empty.
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      continue;
    }
    if (!listening_) {
      ++stats_.dropped_offline;
      continue;
    }
    const auto frame = parse_frame(
        std::span<const std::byte>(recv_scratch_.data(),
                                   static_cast<std::size_t>(received)));
    if (!frame) {
      ++stats_.frames_rejected;
      continue;
    }
    ++stats_.datagrams_received;
    stats_.bytes_received += static_cast<std::uint64_t>(received);
    DatagramBytes bytes;
    if (!recv_pool_.empty()) {
      bytes = std::move(recv_pool_.back());
      recv_pool_.pop_back();
    }
    bytes.assign(frame->payload.begin(), frame->payload.end());
    out.push_back(InboundDatagram{frame->from, std::move(bytes)});
    ++appended;
  }
  return appended;
}

void UdpTransport::recycle(DatagramBytes&& bytes) {
  if (bytes.capacity() == 0) return;
  recv_pool_.push_back(std::move(bytes));
}

bool UdpTransport::wait_readable(int timeout_ms) {
  // A signal (SIGCHLD from a harness reaping daemons, SIGALRM from a
  // profiler) must not turn the remainder of the wait into a spurious
  // timeout: on EINTR, recompute the remaining budget and park again.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(timeout_ms < 0 ? 0 : timeout_ms);
  int remaining_ms = timeout_ms < 0 ? 0 : timeout_ms;
  for (;;) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, remaining_ms);
    if (ready < 0 && errno == EINTR) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      remaining_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count() +
          1);
      continue;
    }
    return ready > 0 && (pfd.revents & POLLIN) != 0;
  }
}

}  // namespace updp2p::net

// updp2p-peerd — one live gossip peer as an OS process.
//
// Runs a runtime::PeerRuntime over net::UdpTransport on 127.0.0.1 (or any
// IPv4 address): the same ReplicaNode the simulators drive, now exchanging
// real datagrams with retry/timeout/backoff. A small status-file protocol
// makes the daemon observable without flaky sleeps — orchestrators (and
// tests/integration/live_convergence_test) poll the file for lines:
//
//   READY <port>            socket bound, runtime online
//   RECOVERED <values> <replayed>  durable store opened (with --data-dir):
//                           snapshot values applied + WAL frames replayed
//   PUBLISHED <key> <hex>   local publish executed (hex = version id)
//   HAVE <key> <hex>        the watched key is now stored locally
//   PULLBYTES <n>           pull-response bytes received up to HAVE time
//   STATE <hex>             store content digest at HAVE time
//
// The status file is replaced atomically on every update (write temp +
// fsync + rename + directory fsync), so a polling orchestrator never
// observes a torn line — and a crash never leaves a half-written file.
// HAVE, PULLBYTES and STATE arrive in one update.
//
// Example: three peers, one publishing after 200 ms (one command per line):
//   updp2p-peerd --self 0 --port 9100 --peers 1:9101,2:9102
//       --publish-key greeting --publish-value hello --publish-at-ms 200 &
//   updp2p-peerd --self 1 --port 9101 --peers 0:9100,2:9102 --watch greeting &
//   updp2p-peerd --self 2 --port 9102 --peers 0:9100,1:9101 --watch greeting &
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "net/udp_transport.hpp"
#include "runtime/peer_runtime.hpp"

using namespace updp2p;

namespace {

/// Parses "id:port,id:port,..." into directory entries on `host`.
std::vector<net::UdpPeerAddress> parse_peers(const std::string& spec,
                                             const std::string& host) {
  std::vector<net::UdpPeerAddress> peers;
  std::size_t begin = 0;
  while (begin < spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      std::cerr << "bad --peers entry (want id:port): " << entry << "\n";
      std::exit(2);
    }
    net::UdpPeerAddress peer;
    peer.id = common::PeerId(
        static_cast<std::uint32_t>(std::stoul(entry.substr(0, colon))));
    peer.host = host;
    peer.port =
        static_cast<std::uint16_t>(std::stoul(entry.substr(colon + 1)));
    peers.push_back(peer);
    begin = end + 1;
  }
  return peers;
}

/// Status channel: the file is atomically REPLACED on every line (tmp +
/// fsync + rename + dir fsync) so a polling reader sees either the old
/// contents or old-plus-the-new-line, never a torn write — the same
/// discipline the durable store's snapshot writer uses.
class StatusFile {
 public:
  explicit StatusFile(std::string path) : path_(std::move(path)) {}

  void line(const std::string& text) {
    std::cout << text << "\n";
    if (path_.empty()) return;
    content_ += text;
    content_ += '\n';
    if (!replace_atomically()) {
      std::cerr << "updp2p-peerd: status write failed: " << path_ << ": "
                << std::strerror(errno) << "\n";
    }
  }

 private:
  [[nodiscard]] bool replace_atomically() const {
    const std::string tmp = path_ + ".tmp";
    const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0) return false;
    std::size_t written = 0;
    while (written < content_.size()) {
      const ssize_t n =
          ::write(fd, content_.data() + written, content_.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return false;
      }
      written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0 || ::close(fd) != 0) return false;
    if (::rename(tmp.c_str(), path_.c_str()) != 0) return false;
    const std::size_t slash = path_.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? std::string(".") : path_.substr(0, slash);
    const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd < 0) return false;
    const bool ok = ::fsync(dir_fd) == 0;
    ::close(dir_fd);
    return ok;
  }

  std::string path_;
  std::string content_;
};

}  // namespace

int main(int argc, char** argv) {
  const common::Args args(argc, argv);
  if (!args.has("self") || !args.has("port")) {
    std::cerr
        << "usage: updp2p-peerd --self ID --port P [--peers id:port,...]\n"
        << "  [--host 127.0.0.1] [--status FILE] [--watch KEY]\n"
        << "  [--publish-key K --publish-value V [--publish-at-ms T]]\n"
        << "  [--run-ms T] [--seed S] [--round-ms T] [--fanout F]\n"
        << "  [--population N] [--acks 0|1] [--retry-initial-ms T]\n"
        << "  [--retry-max-attempts N] [--pull-contacts N]\n"
        << "  [--data-dir DIR] [--snapshot-every N]\n"
        << "  [--snapshot-interval-ms T] [--fsync-appends 0|1]\n"
        << "--retry-max-attempts N: transmissions of a pull or query request\n"
        << "  (default 5); it also caps a push, which is sent at most\n"
        << "  min(N, 2) times\n";
    return 2;
  }

  const auto self = common::PeerId(
      static_cast<std::uint32_t>(args.get_int("self", 0)));
  const std::string host = args.get_string("host", "127.0.0.1");

  net::UdpTransportConfig transport_config;
  transport_config.self = self;
  transport_config.bind_host = host;
  transport_config.bind_port =
      static_cast<std::uint16_t>(args.get_int("port", 0));
  transport_config.peers = parse_peers(args.get_string("peers", ""), host);

  std::string error;
  auto transport = net::UdpTransport::open(transport_config, &error);
  if (!transport) {
    std::cerr << "updp2p-peerd: " << error << "\n";
    return 1;
  }

  runtime::RuntimeConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x5eed));
  config.round_duration = args.get_double("round-ms", 250.0) / 1000.0;
  config.gossip.fanout_fraction = args.get_double("fanout", 0.5);
  config.gossip.estimated_total_replicas = static_cast<std::size_t>(
      args.get_int("population", 1 + static_cast<std::int64_t>(
                                         transport_config.peers.size())));
  config.gossip.acks.enabled = args.get_bool("acks", true);
  config.gossip.pull.contacts_per_attempt =
      static_cast<unsigned>(args.get_int("pull-contacts", 2));
  config.gossip.pull.no_update_timeout =
      static_cast<common::Round>(args.get_int("pull-timeout-rounds", 8));
  config.retry.initial_timeout =
      args.get_double("retry-initial-ms", 100.0) / 1000.0;
  // The request budget; pushes stop at PeerRuntime::kMaxPushTransmissions.
  config.retry.max_attempts =
      static_cast<unsigned>(args.get_int("retry-max-attempts", 5));
  config.retry.max_timeout = args.get_double("retry-max-ms", 2000.0) / 1000.0;
  config.tick_duration = 0.01;
  // Constructed offline, then go_online(): a (re)started daemon enters the
  // §3 reconnect path and pulls what it missed while it was dead.
  config.start_online = false;
  // Durable store: with --data-dir the constructor below recovers
  // snapshot + WAL from disk before the socket goes live.
  config.store.data_dir = args.get_string("data-dir", "");
  config.store.snapshot_every_records =
      static_cast<std::uint64_t>(args.get_int("snapshot-every", 256));
  config.store.snapshot_interval =
      args.get_double("snapshot-interval-ms", 0.0) / 1000.0;
  config.store.fsync_appends = args.get_bool("fsync-appends", false);

  runtime::PeerRuntime peer(config, *transport);
  if (config.store.enabled() && !peer.durable()) {
    std::cerr << "updp2p-peerd: durable store failed to open: "
              << peer.store_error() << "\n";
    return 1;
  }
  std::vector<common::PeerId> view;
  view.reserve(transport_config.peers.size());
  for (const auto& entry : transport_config.peers) {
    if (entry.id != self) view.push_back(entry.id);
  }
  peer.bootstrap(view);
  peer.go_online();

  StatusFile status(args.get_string("status", ""));
  status.line("READY " + std::to_string(transport->bound_port()));
  if (peer.durable()) {
    status.line("RECOVERED " +
                std::to_string(peer.stats().snapshot_values_recovered) + " " +
                std::to_string(peer.stats().wal_replayed));
  }

  const std::string publish_key = args.get_string("publish-key", "");
  const std::string publish_value = args.get_string("publish-value", "");
  const double publish_at =
      args.get_double("publish-at-ms", 0.0) / 1000.0;
  const std::string watch_key = args.get_string("watch", "");
  const double run_for = args.get_double("run-ms", 0.0) / 1000.0;

  bool published = publish_key.empty();
  bool have_reported = false;

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  for (;;) {
    const double now = elapsed();
    if (run_for > 0.0 && now >= run_for) break;
    peer.poll(now);

    if (!published && now >= publish_at) {
      published = true;
      if (const auto id = peer.publish(publish_key, publish_value)) {
        status.line("PUBLISHED " + publish_key + " " + id->to_string());
      }
    }
    if (!watch_key.empty() && !have_reported) {
      if (const auto value = peer.read(watch_key)) {
        have_reported = true;
        // Exact reconnect-cost accounting, snapshotted at HAVE time: a
        // peer that recovered the key from disk reports strictly fewer
        // pull-response bytes than one that pulled from zero. The three
        // lines land in one atomic replacement, so a reader that sees HAVE
        // also sees the snapshot taken with it.
        status.line("HAVE " + watch_key + " " + value->id.to_string() +
                    "\nPULLBYTES " +
                    std::to_string(peer.stats().pull_response_bytes_in) +
                    "\nSTATE " +
                    peer.node().store().content_digest().to_hex());
      }
    }

    // Sleep inside poll(2): wake on datagram arrival, the next timer
    // deadline, or a 20 ms cadence tick, whichever is first.
    double timeout_s = 0.02;
    if (const auto deadline = peer.next_deadline()) {
      timeout_s = std::min(timeout_s, *deadline - elapsed());
    }
    const int timeout_ms =
        timeout_s <= 0.0
            ? 0
            : static_cast<int>(timeout_s * 1000.0) + 1;
    (void)transport->wait_readable(timeout_ms);
  }

  return 0;
}

// udp_steady: 32 PeerRuntimes over real UDP sockets on 127.0.0.1, durable
// stores, open-loop publishes at a fixed rate.
//
// The event loop behaves like 32 separate updp2p-peerd loops sharing one
// thread: it sleeps in ppoll(2) until a socket is readable, a peer's timer
// is due, peerd's 20 ms wait cap expires for some peer, or the next publish
// is due, and then polls only those peers.
#include <poll.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "net/udp_transport.hpp"
#include "workload.hpp"

namespace livebench {

namespace u = updp2p;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kPeers = 32;
constexpr std::size_t kKeys = 64;
constexpr std::size_t kValueBytes = 64;
/// Open-loop publish rate (updates per wall second).
constexpr double kRate = 50.0;
constexpr double kFanout = 0.25;
/// updp2p-peerd's timer-wheel tick.
constexpr double kTick = 0.01;
/// updp2p-peerd never sleeps longer than this between polls.
constexpr double kPeerdWaitCap = 0.02;
/// Quiet time between set-up and the first publish (initial pulls settle).
constexpr double kWarmup = 0.5;
/// An update not aware everywhere this long after its scheduled publish
/// time has failed.
constexpr double kAwareDeadline = 10.0;
/// Longest wait for the retry tail and for the stores to converge.
constexpr double kSettleLimit = 20.0;
constexpr int kSetups = 25;
constexpr double kSegmentSeconds = 2.0;

struct Peer {
  std::unique_ptr<u::net::UdpTransport> udp;
  std::unique_ptr<TimingTransport> timing;
  std::unique_ptr<u::runtime::PeerRuntime> runtime;
  double next_wake = 0.0;
  [[nodiscard]] u::net::Transport& transport() {
    return timing ? static_cast<u::net::Transport&>(*timing) : *udp;
  }
};

struct Cluster {
  std::vector<Peer> peers;
  std::int64_t epoch_ns = 0;
  [[nodiscard]] double now() const {
    return static_cast<double>(now_ns() - epoch_ns) * 1e-9;
  }
};

std::string filesystem_name(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(info.f_type));
  return hex;
}

std::unique_ptr<Cluster> build_cluster(std::uint64_t seed,
                                       const std::string& data_root,
                                       bool decorate, std::string* error) {
  auto cluster = std::make_unique<Cluster>();
  cluster->epoch_ns = now_ns();
  // ReplicaStore::open creates only the last path component.
  std::error_code ec;
  fs::create_directories(data_root, ec);
  cluster->peers.resize(kPeers);
  for (std::size_t i = 0; i < kPeers; ++i) {
    u::net::UdpTransportConfig config;
    config.self = u::common::PeerId(static_cast<std::uint32_t>(i));
    config.bind_host = "127.0.0.1";
    cluster->peers[i].udp = u::net::UdpTransport::open(config, error);
    if (!cluster->peers[i].udp) return nullptr;
  }
  for (Peer& peer : cluster->peers) {
    for (std::size_t j = 0; j < kPeers; ++j) {
      peer.udp->add_route(u::net::UdpPeerAddress{
          u::common::PeerId(static_cast<std::uint32_t>(j)), "127.0.0.1",
          cluster->peers[j].udp->bound_port()});
    }
    if (decorate) peer.timing = std::make_unique<TimingTransport>(*peer.udp);
  }
  std::vector<u::common::PeerId> view;
  for (std::size_t i = 0; i < kPeers; ++i) {
    u::runtime::RuntimeConfig config = peerd_config(kPeers, seed);
    config.gossip.fanout_fraction = kFanout;
    config.store.data_dir = data_root + "/peer-" + std::to_string(i);
    Peer& peer = cluster->peers[i];
    peer.runtime =
        std::make_unique<u::runtime::PeerRuntime>(config, peer.transport());
    view.clear();
    for (std::size_t j = 0; j < kPeers; ++j) {
      if (j != i) view.emplace_back(static_cast<std::uint32_t>(j));
    }
    peer.runtime->bootstrap(view);
  }
  for (Peer& peer : cluster->peers) peer.runtime->go_online();
  return cluster;
}

struct Publish {
  double at = 0.0;
  std::uint32_t peer = 0;
  std::string key;
  std::string value;
};

struct Pending {
  u::version::VersionedValue update;
  double scheduled = 0.0;
  std::uint64_t aware_mask = 0;
  std::size_t aware = 0;
};

}  // namespace

Report run_udp_steady(const Options& options) {
  Report report("udp_steady");
  const std::string data_root = options.out_dir + "/udp-" +
                                std::to_string(options.seed) + "-" +
                                std::to_string(::getpid());
  const std::uint64_t cluster_seed = mix_seed(options.seed, 1);

  // --- set-up, several times; the last cluster runs -----------------------
  std::vector<double> setups;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetups; ++i) {
    cluster.reset();
    std::error_code ec;
    fs::remove_all(data_root, ec);
    std::string error;
    const std::int64_t start = now_ns();
    cluster = build_cluster(cluster_seed, data_root, options.trace, &error);
    setups.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    if (!cluster) {
      report.gate("setup", false, error);
      return report;
    }
  }
  report.info("filesystem", filesystem_name(data_root));
  std::size_t durable = 0;
  std::string store_error;
  for (Peer& peer : cluster->peers) {
    if (peer.runtime->durable()) {
      ++durable;
    } else if (store_error.empty()) {
      store_error = peer.runtime->store_error();
    }
  }
  report.gate("durable", durable == kPeers,
              std::to_string(durable) + " of " + std::to_string(kPeers) +
                  " peers durable" +
                  (store_error.empty() ? "" : ": " + store_error));

  // --- inputs, generated from the seed before the run ---------------------
  const auto count = static_cast<std::size_t>(std::floor(options.seconds * kRate));
  std::vector<Publish> schedule(count);
  {
    u::common::StreamRng rng(options.seed, 2, 0x9b1);
    // Every publish falls mid-way between two timer-wheel ticks, so the
    // publish phase relative to the retry and round timers is the same in
    // every run.
    const double first =
        (std::ceil((cluster->now() + kWarmup) / kTick) + 0.5) * kTick;
    for (std::size_t i = 0; i < count; ++i) {
      schedule[i].at = first + static_cast<double>(i) / kRate;
      schedule[i].peer = static_cast<std::uint32_t>(rng.uniform_int(0, kPeers - 1));
      schedule[i].key = "key-" + std::to_string(rng.uniform_int(0, kKeys - 1));
      schedule[i].value = make_value(options.seed, i, kValueBytes);
    }
  }

  // --- tracing -----------------------------------------------------------
  SpanRecorder recorder(1u << 19);
  std::vector<std::vector<CapturedFrame>> captured(kCapturedPeers);
  double capture_clock = 0.0;
  TraceSegments segments;
  if (options.trace) {
    for (std::size_t i = 0; i < kCapturedPeers; ++i) {
      cluster->peers[i].timing->capture_into(&captured[i], &capture_clock,
                                             kCaptureLimit);
    }
  }
  auto set_tracing = [&](bool on, std::uint64_t published) {
    segments.switch_to(on, published);
    for (Peer& peer : cluster->peers) {
      peer.timing->set_recorder(on ? &recorder : nullptr);
    }
  };

  // --- the event loop ------------------------------------------------------
  std::vector<pollfd> fds(kPeers);
  for (std::size_t i = 0; i < kPeers; ++i) {
    fds[i] = pollfd{cluster->peers[i].udp->fd(), POLLIN, 0};
  }
  std::vector<Pending> pending;
  std::vector<double> aware_ms;
  std::vector<double> lag_ms;
  std::uint64_t published = 0;
  std::uint64_t refused = 0;
  std::uint64_t expired = 0;
  std::size_t next = 0;
  double busy = 0.0;
  double idle = 0.0;
  std::size_t pending_retries_max = 0;
  SpanRecorder* rec = nullptr;  // non-null while a traced segment runs
  std::vector<bool> staggered(kPeers, false);

  auto check_peer = [&](std::size_t p, double now) {
    ScopedSpan span(rec, SpanKind::kCheck, static_cast<std::uint32_t>(p));
    const u::gossip::ReplicaNode& node = cluster->peers[p].runtime->node();
    for (std::size_t i = 0; i < pending.size();) {
      Pending& item = pending[i];
      if ((item.aware_mask >> p & 1u) == 0 && is_aware(node, item.update)) {
        item.aware_mask |= std::uint64_t{1} << p;
        ++item.aware;
      }
      if (item.aware == kPeers) {
        aware_ms.push_back((now - item.scheduled) * 1e3);
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
  };

  auto poll_peer = [&](std::size_t p) {
    Peer& peer = cluster->peers[p];
    const std::int64_t start = now_ns();
    const double now = static_cast<double>(start - cluster->epoch_ns) * 1e-9;
    capture_clock = now;
    {
      ScopedSpan span(rec, SpanKind::kPoll, static_cast<std::uint32_t>(p));
      peer.runtime->poll(now);
    }
    std::optional<double> deadline;
    {
      ScopedSpan span(rec, SpanKind::kNextDeadline, static_cast<std::uint32_t>(p));
      deadline = peer.runtime->next_deadline();
    }
    if (!staggered[p]) {
      // Peers that joined at different times snapshot at different times;
      // started together, all 32 would snapshot within the same few
      // milliseconds every 256 updates. Peer p takes one early snapshot
      // after p * 8 records, which spreads the phases evenly.
      const u::store::ReplicaStore* store = peer.runtime->replica_store();
      if (store == nullptr || store->stats().records_since_snapshot >= p * 8) {
        staggered[p] = true;
        if (store != nullptr && store->stats().records_since_snapshot > 0) {
          (void)peer.runtime->snapshot_now();
        }
      }
    }
    const std::int64_t end = now_ns();
    busy += static_cast<double>(end - start) * 1e-9;
    peer.next_wake = std::min(now + kPeerdWaitCap,
                              deadline ? *deadline : std::numeric_limits<double>::max());
    pending_retries_max = std::max(pending_retries_max, peer.runtime->pending_retries());
    check_peer(p, static_cast<double>(end - cluster->epoch_ns) * 1e-9);
  };

  // One wait-and-poll iteration; never sleeps past `limit`.
  auto step = [&](double limit) {
    double wake = limit;
    if (next < schedule.size()) wake = std::min(wake, schedule[next].at);
    for (const Peer& peer : cluster->peers) wake = std::min(wake, peer.next_wake);
    const double now = cluster->now();
    const double wait = std::max(0.0, wake - now);
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait);
    timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    const std::int64_t idle_start = now_ns();
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    idle += static_cast<double>(now_ns() - idle_start) * 1e-9;
    const double after = cluster->now();
    for (std::size_t p = 0; p < kPeers; ++p) {
      const bool readable = ready > 0 && (fds[p].revents & POLLIN) != 0;
      if (readable || cluster->peers[p].next_wake <= after) poll_peer(p);
    }
  };

  auto publish_due = [&]() {
    while (next < schedule.size() && schedule[next].at <= cluster->now()) {
      const Publish& item = schedule[next++];
      Peer& peer = cluster->peers[item.peer];
      const std::int64_t start = now_ns();
      lag_ms.push_back((static_cast<double>(start - cluster->epoch_ns) * 1e-9 -
                        item.at) * 1e3);
      std::optional<u::version::VersionId> id;
      {
        ScopedSpan span(rec, SpanKind::kPublish, item.peer);
        id = peer.runtime->publish(item.key, item.value);
        if (id) span.set_update(id->digest().lo);
      }
      busy += static_cast<double>(now_ns() - start) * 1e-9;
      ++published;
      const auto stored = peer.runtime->read(item.key);
      if (!id || !stored || stored->id != *id) {
        ++refused;
        continue;
      }
      pending.push_back(Pending{*stored, item.at, 0, 0});
      check_peer(item.peer, cluster->now());
    }
  };

  // Warm-up: initial reconnect pulls settle before measuring.
  {
    const double until = schedule.empty() ? cluster->now() : schedule.front().at;
    while (cluster->now() < until) step(until);
  }

  Totals base;
  for (Peer& peer : cluster->peers) base.add(*peer.runtime, peer.transport());
  const double cpu_start = cpu_seconds();
  const double wall_start = cluster->now();
  idle = 0.0;
  busy = 0.0;
  double segment_end = wall_start;
  bool traced_segment = false;
  bool segments_closed = false;
  if (options.trace) set_tracing(false, 0);
  auto maybe_switch = [&](double now) {
    if (!options.trace || now < segment_end || next >= schedule.size()) return;
    traced_segment = !traced_segment;
    set_tracing(traced_segment, published);
    rec = traced_segment ? &recorder : nullptr;
    segment_end = now + kSegmentSeconds;
  };

  // Publish phase, then until every update is aware or past its deadline.
  while (next < schedule.size() || !pending.empty()) {
    const double now = cluster->now();
    maybe_switch(now);
    publish_due();
    if (options.trace && next >= schedule.size() && !segments_closed) {
      segments.close(published);
      segments_closed = true;
      for (Peer& peer : cluster->peers) peer.timing->set_recorder(nullptr);
      rec = nullptr;
    }
    for (std::size_t i = 0; i < pending.size();) {
      if (now - pending[i].scheduled > kAwareDeadline) {
        ++expired;
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
    if (next >= schedule.size() && pending.empty()) break;
    step(now + kPeerdWaitCap);
  }
  // Retry tail: until no peer holds an unconfirmed datagram.
  const double tail_limit = cluster->now() + kSettleLimit;
  auto retries_left = [&] {
    std::size_t left = 0;
    for (const Peer& peer : cluster->peers) left += peer.runtime->pending_retries();
    return left;
  };
  while (retries_left() > 0 && cluster->now() < tail_limit) {
    maybe_switch(cluster->now());
    step(cluster->now() + kPeerdWaitCap);
  }
  const double wall = cluster->now() - wall_start;
  const double cpu = cpu_seconds() - cpu_start;
  const double idle_measured = idle;

  Totals end;
  for (Peer& peer : cluster->peers) end.add(*peer.runtime, peer.transport());
  const Totals delta = end - base;

  // Convergence: every store must hold the same versions.
  auto digests_equal = [&] {
    const auto& first = cluster->peers.front().runtime->node().store().content_digest();
    return std::all_of(cluster->peers.begin(), cluster->peers.end(),
                       [&](const Peer& peer) {
                         return peer.runtime->node().store().content_digest() == first;
                       });
  };
  const double settle_limit = cluster->now() + kSettleLimit;
  while (!digests_equal() && cluster->now() < settle_limit) {
    step(cluster->now() + kPeerdWaitCap);
  }
  report.gate("digest", digests_equal(), "content digests after settling");
  gate_zero_counters(report, end);
  report.gate("tail", retries_left() == 0,
              std::to_string(retries_left()) + " retries still pending");

  // --- end-to-end metrics --------------------------------------------------
  const std::uint64_t failed = refused + expired;
  report.operations(published, failed);
  const double n = std::max<double>(1.0, static_cast<double>(published));
  report.metric("setup_s", median(setups), "s",
                "median of " + std::to_string(setups.size()));
  std::vector<double> aware_rounds;
  for (const double ms : aware_ms) aware_rounds.push_back(ms / 250.0);
  report.timing("aware", aware_ms, "ms");
  report.timing("aware", aware_rounds, "rounds");
  report.metric("updates_per_s", static_cast<double>(published) / busy, "1/s",
                "per second inside cluster calls");
  report.metric("msgs_per_s", static_cast<double>(delta.sent) / busy, "1/s",
                "datagrams per second inside cluster calls");
  report.metric("cpu_us_per_update", cpu * 1e6 / n, "us");
  report.metric("msgs_per_update", static_cast<double>(delta.sent) / n, "count");
  report.metric("bytes_per_update", static_cast<double>(delta.bytes_sent) / n, "B");
  report.metric("failed_frac", static_cast<double>(failed) / n, "ratio");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.info("rate", format_number(kRate) + " updates/s open loop, " +
                          std::to_string(published) + " published");

  // --- per-layer metrics ---------------------------------------------------
  report_live_counters(report, delta, published, pending_retries_max);
  report.metric("store.appends_per_update",
                static_cast<double>(delta.store_records) / n, "count");
  report.metric("store.bytes_per_update",
                static_cast<double>(delta.store_bytes) / n, "B");
  report.metric("driver.publish_lag_p99_ms", percentile(lag_ms, 0.99), "ms",
                "n=" + std::to_string(lag_ms.size()));
  report.metric("driver.idle_frac", wall > 0.0 ? idle_measured / wall : 0.0, "ratio");
  if (options.trace) {
    std::vector<const TimingTransport*> transports;
    for (const Peer& peer : cluster->peers) transports.push_back(peer.timing.get());
    report_traced_run(report, recorder, transports, segments,
                      options.out_dir + "/spans-udp_steady-" +
                          std::to_string(options.seed) + ".tsv");
    std::vector<ReplayInput> inputs;
    for (std::size_t i = 0; i < kCapturedPeers; ++i) {
      ReplayInput input;
      input.self = u::common::PeerId(static_cast<std::uint32_t>(i));
      input.gossip = cluster->peers[i].runtime->node().config();
      input.node_seed = cluster_seed;
      input.round_duration = 0.25;
      for (std::size_t j = 0; j < kPeers; ++j) {
        if (j != i) input.view.emplace_back(static_cast<std::uint32_t>(j));
      }
      input.frames = std::move(captured[i]);
      inputs.push_back(std::move(input));
    }
    // The live peers' flush and snapshot policy, in a throwaway directory
    // (none when the durable gate already failed).
    u::store::StoreConfig store;
    if (const u::store::ReplicaStore* live = cluster->peers[0].runtime->replica_store()) {
      store = live->config();
      store.data_dir = data_root + "-replay";
    }
    replay_pass(inputs, store, report);
  }

  cluster.reset();
  std::error_code ec;
  fs::remove_all(data_root, ec);
  return report;
}

}  // namespace livebench

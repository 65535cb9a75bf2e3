// inproc_churn: 512 volatile PeerRuntimes over the virtual-time
// InprocNetwork, about 30 % of them online at a time with sessions drawn
// from churn::SessionProcess, lossy links, and publishes from a random
// online peer at a fixed virtual rate. This is the paper's regime: most
// replicas are offline, and reconnecting ones catch up through the pull
// phase.
//
// The benchmark steps virtual time in fixed increments. Each step delivers
// due datagrams, polls every runtime (offline ones too, so a reconnecting
// peer's clock is current), then applies the session changes and publishes
// due by that time, in time order.
#include <algorithm>
#include <bitset>
#include <cmath>
#include <map>
#include <memory>

#include "churn/churn_model.hpp"
#include "common/rng.hpp"
#include "gossip/codec.hpp"
#include "net/inproc_transport.hpp"
#include "net/latency.hpp"
#include "workload.hpp"

namespace livebench {

namespace u = updp2p;

namespace {

constexpr std::size_t kPeers = 512;
constexpr std::size_t kView = 32;
constexpr std::size_t kKeys = 64;
constexpr std::size_t kValueBytes = 64;
constexpr double kRound = 0.5;
/// Virtual-time step: awareness is observed at poll times, so this is the
/// resolution of every virtual-time latency (0.004 rounds).
constexpr double kStep = 0.002;
constexpr double kFanout = 0.03;
constexpr double kLoss = 0.05;
constexpr double kLatencyLo = 0.010;
constexpr double kLatencyHi = 0.120;
/// Session lengths for SessionProcess. Online sessions shorter than
/// kMinOnline are redrawn, so every reconnect has the whole catch-up
/// deadline before it can leave again; by memorylessness the online time
/// is then kMinOnline + Exp(kMeanOnline), 30 s on average, against 70 s
/// offline: 30 % availability.
constexpr double kMeanOnline = 5.0;
constexpr double kMeanOffline = 70.0;
constexpr double kMinOnline = 25.0;
/// Publishes per virtual second.
constexpr double kPublishRate = 5.0;
constexpr double kFirstPublish = 1.0;
/// Reconnects before this virtual time are not measured (stores empty).
constexpr double kCatchupFrom = 10.0;
constexpr double kAwareDeadline = 60.0;    // virtual seconds
constexpr double kCatchupDeadline = kMinOnline;
constexpr double kAwareQuorum = 0.99;
/// Virtual seconds published per --seconds: a fixed amount of work per
/// seed, which takes about --seconds of wall time on a 2.1 GHz Xeon core,
/// so every count depends on the seed alone.
constexpr double kVirtualPerSecond = 7.0;
/// Longest virtual time the schedules cover.
constexpr double kHorizon = 3000.0;
/// Counters at this virtual time are replayed by a second cluster.
constexpr double kFingerprintAt = 20.0;
constexpr double kSettleLimit = 180.0;
constexpr int kSetups = 25;
constexpr double kSegment = 10.0;  // virtual seconds per trace segment
constexpr std::size_t kSampledPeers = 8;

/// One scheduled action, in virtual time.
struct Event {
  double at = 0.0;
  enum class Kind : std::uint8_t { kOffline, kOnline, kPublish } kind = Kind::kOnline;
  std::uint32_t peer = 0;
  std::uint32_t publish = 0;  ///< index into the publish list
};

struct PublishInput {
  std::string key;
  std::string value;
};

struct Inputs {
  std::vector<bool> initially_online;
  std::vector<Event> events;  ///< sorted by time
  std::vector<PublishInput> publishes;
};

/// Session schedules and publishes, generated from the seed alone.
Inputs generate(std::uint64_t seed) {
  Inputs inputs;
  inputs.initially_online.resize(kPeers);
  const u::churn::SessionProcess sessions(kMeanOnline, kMeanOffline);
  // Initial states at the availability of the redrawn process.
  const u::churn::SessionProcess stationary(kMinOnline + kMeanOnline, kMeanOffline);
  std::vector<Event> sessions_events;
  for (std::size_t p = 0; p < kPeers; ++p) {
    u::common::Rng rng(mix_seed(seed, 1000 + p));
    auto [online, next] = stationary.start(rng);
    inputs.initially_online[p] = online;
    double now = 0.0;
    while (next < kHorizon) {
      online = !online;
      now = next;
      sessions_events.push_back(Event{now,
                                      online ? Event::Kind::kOnline : Event::Kind::kOffline,
                                      static_cast<std::uint32_t>(p), 0});
      do {
        next = sessions.next_transition(rng, online, now);
      } while (online && next - now < kMinOnline);
    }
  }
  std::stable_sort(sessions_events.begin(), sessions_events.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });

  // Merge publishes in; the publisher is drawn among the peers online at
  // its time, so the run hands the program only the generated choice.
  std::vector<std::uint32_t> online;
  std::vector<std::size_t> slot(kPeers, kPeers);
  for (std::size_t p = 0; p < kPeers; ++p) {
    if (inputs.initially_online[p]) {
      slot[p] = online.size();
      online.push_back(static_cast<std::uint32_t>(p));
    }
  }
  u::common::StreamRng rng(seed, 3, 0x9b1);
  std::size_t s = 0;
  for (std::size_t i = 0;; ++i) {
    const double at = kFirstPublish + static_cast<double>(i) / kPublishRate;
    if (at >= kHorizon) break;
    while (s < sessions_events.size() && sessions_events[s].at <= at) {
      const Event& e = sessions_events[s++];
      if (e.kind == Event::Kind::kOnline) {
        slot[e.peer] = online.size();
        online.push_back(e.peer);
      } else {
        const std::size_t at_slot = slot[e.peer];
        online[at_slot] = online.back();
        slot[online[at_slot]] = at_slot;
        online.pop_back();
        slot[e.peer] = kPeers;
      }
      inputs.events.push_back(e);
    }
    if (online.empty()) continue;
    const auto pick = online[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(online.size()) - 1))];
    inputs.events.push_back(Event{at, Event::Kind::kPublish, pick,
                                  static_cast<std::uint32_t>(inputs.publishes.size())});
    inputs.publishes.push_back(PublishInput{
        "key-" + std::to_string(rng.uniform_int(0, kKeys - 1)),
        make_value(seed, i, kValueBytes)});
  }
  while (s < sessions_events.size()) inputs.events.push_back(sessions_events[s++]);
  return inputs;
}

/// Drops every pull response: the canary fault the digest gate must catch.
class DropPullResponses final : public u::net::LinkFaultPolicy {
 public:
  Decision on_submit(u::common::PeerId, u::common::PeerId,
                     std::span<const std::byte> payload,
                     u::common::StreamRng&) override {
    Decision decision;
    const auto probe = u::gossip::probe_frame(payload);
    decision.drop = probe && probe->kind == u::gossip::WireKind::kPullResponse;
    return decision;
  }
};

struct Peer {
  std::unique_ptr<u::net::InprocTransport> inproc;
  std::unique_ptr<TimingTransport> timing;
  std::unique_ptr<u::runtime::PeerRuntime> runtime;
  std::vector<u::common::PeerId> view;
  std::uint64_t seen_in = 0;
  [[nodiscard]] u::net::Transport& transport() {
    return timing ? static_cast<u::net::Transport&>(*timing) : *inproc;
  }
};

struct Cluster {
  std::unique_ptr<u::net::InprocNetwork> network;
  std::vector<Peer> peers;
  std::uint64_t runtime_seed = 0;
};

std::unique_ptr<Cluster> build_cluster(std::uint64_t seed, const Inputs& inputs,
                                       bool decorate,
                                       u::net::LinkFaultPolicy* policy) {
  auto cluster = std::make_unique<Cluster>();
  u::net::InprocNetworkConfig net;
  net.seed = mix_seed(seed, 4);
  net.loss_probability = kLoss;
  net.latency = std::make_shared<u::net::UniformLatency>(kLatencyLo, kLatencyHi);
  cluster->network = std::make_unique<u::net::InprocNetwork>(net);
  cluster->network->set_link_policy(policy);
  cluster->runtime_seed = mix_seed(seed, 5);
  u::runtime::RuntimeConfig config = peerd_config(kPeers, cluster->runtime_seed);
  config.round_duration = kRound;
  config.gossip.fanout_fraction = kFanout;
  // §6 in this regime: pushes skip peers that did not ack for a while, and
  // a reconnecting peer pulls from the first peer that pushes to it, which
  // is online by construction. Eager pulls to random contacts, most of them
  // offline, leave reconnects stuck until every key is rewritten. Two
  // transmissions per datagram keep the 5 % loss from dropping pushes.
  config.gossip.acks.suppression_rounds = 20;
  config.gossip.pull.lazy = true;
  config.retry.max_attempts = 2;
  cluster->peers.resize(kPeers);
  for (std::size_t i = 0; i < kPeers; ++i) {
    Peer& peer = cluster->peers[i];
    peer.inproc = cluster->network->attach(u::common::PeerId(static_cast<std::uint32_t>(i)));
    if (decorate) peer.timing = std::make_unique<TimingTransport>(*peer.inproc);
    peer.runtime = std::make_unique<u::runtime::PeerRuntime>(config, peer.transport());
    u::common::StreamRng rng(seed, i, 0xb007);
    for (const std::uint32_t pick :
         rng.sample_without_replacement(kPeers - 1, kView)) {
      peer.view.emplace_back(pick >= i ? pick + 1 : pick);
    }
    peer.runtime->bootstrap(peer.view);
  }
  for (std::size_t i = 0; i < kPeers; ++i) {
    if (inputs.initially_online[i]) cluster->peers[i].runtime->go_online();
  }
  return cluster;
}

struct Update {
  u::version::VersionedValue value;
  double published = 0.0;
  std::bitset<kPeers> audience;
  std::bitset<kPeers> aware;
  std::size_t audience_n = 0;
  std::size_t aware_n = 0;
  [[nodiscard]] bool reached() const {
    return static_cast<double>(aware_n) >=
           std::ceil(kAwareQuorum * static_cast<double>(audience_n));
  }
};

struct Reconnect {
  std::uint32_t peer = 0;
  double at = 0.0;
  std::vector<u::version::VersionedValue> targets;
};

/// Everything one run of the cluster measured.
struct Run {
  std::vector<double> aware_rounds;
  std::vector<double> catchup_rounds;
  std::uint64_t published = 0;
  std::uint64_t publish_refused = 0;
  std::uint64_t publish_expired = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t reconnects_failed = 0;
  double busy = 0.0;
  double advance_s = 0.0;
  double cpu = 0.0;
  double virtual_end = 0.0;
  Totals delta;
  u::net::InprocNetworkStats net_start;
  u::net::InprocNetworkStats net_end;
  std::size_t pending_retries_max = 0;
  std::vector<std::uint64_t> fingerprint;
  bool digests_equal = false;
  Totals end;
};

std::vector<std::uint64_t> fingerprint_of(Cluster& cluster) {
  Totals totals;
  for (Peer& peer : cluster.peers) totals.add(*peer.runtime, peer.transport());
  const u::net::InprocNetworkStats& net = cluster.network->stats();
  return {totals.sent, totals.bytes_sent, totals.datagrams_in, totals.retransmits,
          totals.retries_cancelled, totals.retries_exhausted, totals.pushes_received,
          totals.duplicate_pushes, totals.pull_requests_sent, totals.pull_response_bytes_in,
          net.datagrams_submitted, net.datagrams_delivered, net.dropped_loss,
          net.dropped_offline};
}

struct Tracing {
  SpanRecorder* all = nullptr;  ///< the run's recorder; null untraced
  TraceSegments segments;
  double segment_end = 0.0;
  double clock = 0.0;
  u::net::InprocNetworkStats traced_net;  ///< switch counters in traced segments
  u::net::InprocNetworkStats mark;
};

void add_net(u::net::InprocNetworkStats& sum, const u::net::InprocNetworkStats& a,
             const u::net::InprocNetworkStats& b) {
  sum.datagrams_delivered += a.datagrams_delivered - b.datagrams_delivered;
  sum.dropped_offline += a.dropped_offline - b.dropped_offline;
  sum.dropped_detached += a.dropped_detached - b.dropped_detached;
}

/// Runs the cluster: publishes until virtual time `stop_at`; with `settle`,
/// then lets every update and reconnect resolve, brings all peers online
/// and waits for the stores to converge.
Run run_cluster(Cluster& cluster, const Inputs& inputs, double stop_at,
                bool settle, Tracing* tracing) {
  Run run;
  std::vector<Update> updates;  // outstanding
  std::vector<Reconnect> reconnects;  // outstanding
  std::map<std::string, std::pair<double, u::version::VersionedValue>, std::less<>> newest;
  std::vector<bool> online(kPeers);
  for (std::size_t p = 0; p < kPeers; ++p) online[p] = inputs.initially_online[p];

  const double cpu_start = cpu_seconds();
  Totals base;
  for (Peer& peer : cluster.peers) base.add(*peer.runtime, peer.transport());
  run.net_start = cluster.network->stats();
  bool fingerprinted = false;
  bool publishing = true;
  std::size_t next_event = 0;
  double now = 0.0;
  SpanRecorder* rec = nullptr;

  auto complete = [&](Update& update) {
    run.aware_rounds.push_back((now - update.published) / kRound);
    auto& slot = newest[update.value.key];
    if (update.published >= slot.first) slot = {update.published, update.value};
  };

  auto check = [&](std::size_t p) {
    const u::gossip::ReplicaNode& node = cluster.peers[p].runtime->node();
    for (std::size_t i = 0; i < updates.size();) {
      Update& update = updates[i];
      if (update.audience.test(p) && !update.aware.test(p) &&
          is_aware(node, update.value)) {
        update.aware.set(p);
        ++update.aware_n;
      }
      if (update.reached()) {
        complete(update);
        updates[i] = std::move(updates.back());
        updates.pop_back();
      } else {
        ++i;
      }
    }
    for (std::size_t i = 0; i < reconnects.size();) {
      Reconnect& r = reconnects[i];
      if (r.peer == p) {
        // Awareness only grows, so a target once met is dropped.
        std::erase_if(r.targets, [&](const auto& target) { return is_aware(node, target); });
      }
      if (r.peer == p && r.targets.empty()) {
        run.catchup_rounds.push_back((now - r.at) / kRound);
        reconnects[i] = std::move(reconnects.back());
        reconnects.pop_back();
      } else {
        ++i;
      }
    }
  };

  auto apply = [&](const Event& event) {
    Peer& peer = cluster.peers[event.peer];
    const std::int64_t start = now_ns();
    switch (event.kind) {
      case Event::Kind::kOffline: {
        {
          ScopedSpan span(rec, SpanKind::kGoOffline, event.peer);
          peer.runtime->go_offline();
        }
        run.busy += static_cast<double>(now_ns() - start) * 1e-9;
        online[event.peer] = false;
        for (Update& update : updates) {
          if (update.audience.test(event.peer)) {
            update.audience.reset(event.peer);
            --update.audience_n;
            if (update.aware.test(event.peer)) {
              update.aware.reset(event.peer);
              --update.aware_n;
            }
          }
        }
        for (std::size_t i = 0; i < reconnects.size();) {
          if (reconnects[i].peer == event.peer) {
            ++run.reconnects_failed;  // left before catching up
            reconnects[i] = std::move(reconnects.back());
            reconnects.pop_back();
          } else {
            ++i;
          }
        }
        return;
      }
      case Event::Kind::kOnline: {
        {
          ScopedSpan span(rec, SpanKind::kGoOnline, event.peer);
          peer.runtime->go_online();
        }
        run.busy += static_cast<double>(now_ns() - start) * 1e-9;
        online[event.peer] = true;
        if (publishing && now >= kCatchupFrom) {
          Reconnect r{event.peer, now, {}};
          for (const auto& [key, entry] : newest) r.targets.push_back(entry.second);
          ++run.reconnects;
          reconnects.push_back(std::move(r));
          check(event.peer);
        }
        return;
      }
      case Event::Kind::kPublish: {
        const PublishInput& input = inputs.publishes[event.publish];
        std::optional<u::version::VersionId> id;
        {
          ScopedSpan span(rec, SpanKind::kPublish, event.peer);
          id = peer.runtime->publish(input.key, input.value);
          if (id) span.set_update(id->digest().lo);
        }
        run.busy += static_cast<double>(now_ns() - start) * 1e-9;
        ++run.published;
        const auto stored = peer.runtime->read(input.key);
        if (!id || !stored || stored->id != *id) {
          ++run.publish_refused;
          return;
        }
        Update update;
        update.value = *stored;
        update.published = now;
        for (std::size_t p = 0; p < kPeers; ++p) {
          if (online[p]) {
            update.audience.set(p);
            ++update.audience_n;
          }
        }
        update.aware.set(event.peer);
        update.aware_n = 1;
        updates.push_back(std::move(update));
        return;
      }
    }
  };

  auto step = [&]() {
    now += kStep;
    if (tracing != nullptr && tracing->all != nullptr && publishing &&
        now >= tracing->segment_end) {
      const bool traced = !tracing->segments.traced();
      if (tracing->segments.traced()) {
        add_net(tracing->traced_net, cluster.network->stats(), tracing->mark);
      }
      tracing->segments.switch_to(traced, run.published);
      tracing->mark = cluster.network->stats();
      rec = traced ? tracing->all : nullptr;
      for (Peer& peer : cluster.peers) {
        if (peer.timing) peer.timing->set_recorder(rec);
      }
      tracing->segment_end = now + kSegment;
    }
    if (tracing != nullptr) tracing->clock = now;
    std::int64_t start = now_ns();
    {
      ScopedSpan span(rec, SpanKind::kAdvance, 0);
      cluster.network->advance_to(now);
    }
    std::int64_t end = now_ns();
    run.advance_s += static_cast<double>(end - start) * 1e-9;
    start = end;
    // Every runtime, every step, as LoopbackCluster and chaos::Engine step
    // theirs: offline ones too, so a reconnecting peer's clock is current.
    for (std::size_t p = 0; p < kPeers; ++p) {
      ScopedSpan span(rec, SpanKind::kPoll, static_cast<std::uint32_t>(p));
      cluster.peers[p].runtime->poll(now);
    }
    end = now_ns();
    run.busy += static_cast<double>(end - start) * 1e-9;
    // Session changes and publishes due by now, in time order.
    while (next_event < inputs.events.size() && inputs.events[next_event].at <= now) {
      const Event& event = inputs.events[next_event++];
      if (!publishing && event.kind == Event::Kind::kPublish) continue;
      apply(event);
    }
    // Awareness bookkeeping for the peers that took in datagrams.
    {
      ScopedSpan span(rec, SpanKind::kCheck, 0);
      for (std::size_t p = 0; p < kPeers; ++p) {
        Peer& peer = cluster.peers[p];
        const std::uint64_t in = peer.runtime->stats().datagrams_in;
        if (in != peer.seen_in) {
          peer.seen_in = in;
          check(p);
        }
        run.pending_retries_max =
            std::max(run.pending_retries_max, peer.runtime->pending_retries());
      }
      for (std::size_t i = 0; i < updates.size();) {
        if (updates[i].reached()) {
          complete(updates[i]);
          updates[i] = std::move(updates.back());
          updates.pop_back();
        } else if (now - updates[i].published > kAwareDeadline) {
          ++run.publish_expired;
          updates[i] = std::move(updates.back());
          updates.pop_back();
        } else {
          ++i;
        }
      }
      for (std::size_t i = 0; i < reconnects.size();) {
        if (now - reconnects[i].at > kCatchupDeadline) {
          ++run.reconnects_failed;
          reconnects[i] = std::move(reconnects.back());
          reconnects.pop_back();
        } else {
          ++i;
        }
      }
    }
    if (!fingerprinted && now >= kFingerprintAt) {
      fingerprinted = true;
      run.fingerprint = fingerprint_of(cluster);
    }
  };

  // Publish phase.
  while (now < stop_at) step();
  if (!settle) return run;
  publishing = false;
  if (tracing != nullptr && tracing->all != nullptr) {
    if (tracing->segments.traced()) {
      add_net(tracing->traced_net, cluster.network->stats(), tracing->mark);
    }
    tracing->segments.close(run.published);
    for (Peer& peer : cluster.peers) {
      if (peer.timing) peer.timing->set_recorder(nullptr);
    }
    rec = nullptr;
  }
  // Until every update and reconnect has resolved.
  while (!updates.empty() || !reconnects.empty()) step();
  // Retry tail: the measured interval ends when no datagram awaits
  // confirmation.
  auto retries_left = [&] {
    std::size_t left = 0;
    for (const Peer& peer : cluster.peers) left += peer.runtime->pending_retries();
    return left;
  };
  const double tail_limit = now + 30.0;
  while (retries_left() > 0 && now < tail_limit) step();
  run.cpu = cpu_seconds() - cpu_start;
  run.virtual_end = now;
  run.net_end = cluster.network->stats();
  for (Peer& peer : cluster.peers) run.end.add(*peer.runtime, peer.transport());
  run.delta = run.end - base;
  // Convergence: all peers online, then every store must hold the same
  // versions. next_event stays where publishing stopped, so no further
  // session change applies.
  for (std::size_t p = 0; p < kPeers; ++p) {
    if (!online[p]) {
      cluster.peers[p].runtime->go_online();
      online[p] = true;
    }
  }
  next_event = inputs.events.size();
  auto digests_equal = [&] {
    const auto& first = cluster.peers.front().runtime->node().store().content_digest();
    return std::all_of(cluster.peers.begin(), cluster.peers.end(), [&](const Peer& peer) {
      return peer.runtime->node().store().content_digest() == first;
    });
  };
  const double settle_limit = now + kSettleLimit;
  while (!digests_equal() && now < settle_limit) {
    for (int i = 0; i < 50; ++i) step();
  }
  run.digests_equal = digests_equal();
  run.end = Totals{};
  for (Peer& peer : cluster.peers) run.end.add(*peer.runtime, peer.transport());
  return run;
}

}  // namespace

Report run_inproc_churn(const Options& options) {
  Report report("inproc_churn");
  const Inputs inputs = generate(options.seed);
  DropPullResponses drop_pull_responses;
  u::net::LinkFaultPolicy* policy =
      options.canary.empty() ? nullptr : &drop_pull_responses;

  std::vector<double> setups;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetups; ++i) {
    cluster.reset();
    const std::int64_t start = now_ns();
    cluster = build_cluster(options.seed, inputs, options.trace, policy);
    setups.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  SpanRecorder recorder(1u << 19);
  std::vector<std::vector<CapturedFrame>> captured(kSampledPeers);
  Tracing tracing;
  if (options.trace) {
    tracing.all = &recorder;
    for (std::size_t i = 0; i < kSampledPeers; ++i) {
      cluster->peers[i].timing->capture_into(&captured[i], &tracing.clock, kCaptureLimit);
    }
  }
  const double publish_until =
      std::min(kHorizon, std::max(kFingerprintAt, kVirtualPerSecond * options.seconds));
  const Run run = run_cluster(*cluster, inputs, publish_until, true, &tracing);
  // Before the determinism check builds a second cluster.
  const double peak_rss = peak_rss_mb();

  // Determinism: a second cluster from the same seed must count exactly
  // the same by kFingerprintAt.
  {
    auto again = build_cluster(options.seed, inputs, false, policy);
    const Run replay = run_cluster(*again, inputs, kFingerprintAt, false, nullptr);
    report.gate("deterministic", !run.fingerprint.empty() &&
                                     replay.fingerprint == run.fingerprint,
                "counters at t=" + format_number(kFingerprintAt) +
                    " s match a second run");
  }
  report.gate("digest", run.digests_equal,
              "content digests after every peer is online and settled");
  gate_zero_counters(report, run.end);

  const std::uint64_t failed_updates = run.publish_refused + run.publish_expired;
  report.operations(run.published, failed_updates);
  report.operations(run.reconnects, run.reconnects_failed);
  const double n = std::max<double>(1.0, static_cast<double>(run.published));
  const Totals& d = run.delta;
  const double busy = run.busy + run.advance_s;
  report.metric("setup_s", median(setups), "s", "median of " + std::to_string(setups.size()));
  report.timing("aware", run.aware_rounds, "rounds");
  report.timing("catchup", run.catchup_rounds, "rounds");
  report.metric("updates_per_s", static_cast<double>(run.published) / busy, "1/s",
                "per second inside cluster calls");
  report.metric("msgs_per_s", static_cast<double>(d.sent) / busy, "1/s",
                "datagrams per second inside cluster calls");
  report.metric("cpu_us_per_update", run.cpu * 1e6 / n, "us");
  report.metric("msgs_per_update", static_cast<double>(d.sent) / n, "count");
  report.metric("bytes_per_update", static_cast<double>(d.bytes_sent) / n, "B");
  const std::uint64_t attempted = run.published + run.reconnects;
  report.metric("failed_frac",
                attempted ? static_cast<double>(failed_updates + run.reconnects_failed) /
                                static_cast<double>(attempted)
                          : 0.0,
                "ratio",
                std::to_string(run.reconnects_failed) + " of " +
                    std::to_string(run.reconnects) + " reconnects failed");
  report.metric("peak_rss_mb", peak_rss, "MB");
  report.info("virtual_time", format_number(run.virtual_end) + " s, " +
                                  std::to_string(run.published) + " updates, " +
                                  std::to_string(run.reconnects) + " reconnects");

  report_live_counters(report, d, run.published, run.pending_retries_max);
  const auto submitted = static_cast<double>(run.net_end.datagrams_submitted -
                                             run.net_start.datagrams_submitted);
  report.metric("net.inproc.dropped_offline_frac",
                static_cast<double>(run.net_end.dropped_offline - run.net_start.dropped_offline) /
                    std::max(1.0, submitted),
                "ratio");
  report.metric("net.inproc.dropped_loss_frac",
                static_cast<double>(run.net_end.dropped_loss - run.net_start.dropped_loss) /
                    std::max(1.0, submitted),
                "ratio");
  const double reconnects = std::max<double>(1.0, static_cast<double>(run.reconnects));
  report.metric("gossip.node.pull_requests_per_reconnect",
                static_cast<double>(d.pull_requests_sent) / reconnects, "count");
  report.metric("gossip.node.pull_response_bytes_per_reconnect",
                static_cast<double>(d.pull_response_bytes_in) / reconnects, "B");

  if (options.trace) {
    std::vector<const TimingTransport*> transports;
    for (const Peer& peer : cluster->peers) transports.push_back(peer.timing.get());
    report_traced_run(report, recorder, transports, tracing.segments,
                      options.out_dir + "/spans-inproc_churn-" +
                          std::to_string(options.seed) + ".tsv");
    const double processed = static_cast<double>(tracing.traced_net.datagrams_delivered +
                                                 tracing.traced_net.dropped_offline +
                                                 tracing.traced_net.dropped_detached);
    report.metric("net.inproc.advance_ns_per_datagram",
                  processed > 0.0
                      ? static_cast<double>(recorder.totals(SpanKind::kAdvance).total_ns) / processed
                      : 0.0,
                  "ns");
    std::vector<ReplayInput> replay_inputs;
    for (std::size_t i = 0; i < kSampledPeers; ++i) {
      ReplayInput input;
      input.self = u::common::PeerId(static_cast<std::uint32_t>(i));
      input.gossip = cluster->peers[i].runtime->node().config();
      input.node_seed = cluster->runtime_seed;
      input.round_duration = kRound;
      input.view = cluster->peers[i].view;
      input.frames = std::move(captured[i]);
      replay_inputs.push_back(std::move(input));
    }
    // Volatile peers: no store to replay into.
    replay_pass(replay_inputs, u::store::StoreConfig{}, report);
  }
  return report;
}

}  // namespace livebench

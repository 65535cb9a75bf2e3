#include "runtime/loopback_cluster.hpp"

#include <algorithm>
#include <span>

#include "common/ensure.hpp"

namespace updp2p::runtime {

namespace {
/// Purpose keys of the cluster's StreamRngs, all under the runtime seed:
/// each peer's bootstrap view sample and session process (stream = peer
/// id), and the cluster-level writer/replica picks (stream 0).
constexpr std::uint64_t kBootstrapPurpose = 0xB007;
constexpr std::uint64_t kSessionPurpose = 0x5E55;
constexpr std::uint64_t kPickPurpose = 0x91C4;

void accumulate(RuntimeStats& sum, const RuntimeStats& s) {
  sum.datagrams_out += s.datagrams_out;
  sum.datagrams_in += s.datagrams_in;
  sum.decode_errors += s.decode_errors;
  sum.retransmits += s.retransmits;
  sum.retries_armed += s.retries_armed;
  sum.retries_cancelled += s.retries_cancelled;
  sum.retries_exhausted += s.retries_exhausted;
  sum.rounds_ticked += s.rounds_ticked;
  sum.dropped_while_offline += s.dropped_while_offline;
  sum.frames_reused += s.frames_reused;
  sum.retransmit_reencodes += s.retransmit_reencodes;
  sum.wal_appends += s.wal_appends;
  sum.wal_append_failures += s.wal_append_failures;
  sum.wal_duplicates_skipped += s.wal_duplicates_skipped;
  sum.wal_replayed += s.wal_replayed;
  sum.wal_replay_rejected += s.wal_replay_rejected;
  sum.snapshot_values_recovered += s.snapshot_values_recovered;
  sum.snapshots_written += s.snapshots_written;
  sum.snapshot_failures += s.snapshot_failures;
  sum.pull_response_bytes_in += s.pull_response_bytes_in;
}
}  // namespace

LoopbackCluster::LoopbackCluster(LoopbackClusterConfig config,
                                 std::vector<store::StoreConfig> stores)
    : config_([&config] {
        // Key the network off the runtime seed unless the caller chose one.
        if (config.network.seed == net::InprocNetworkConfig{}.seed) {
          config.network.seed = config.runtime.seed;
        }
        return std::move(config);
      }()),
      stores_(std::move(stores)),
      network_(config_.network),
      pick_rng_(config_.runtime.seed, 0, kPickPurpose) {
  UPDP2P_ENSURE(config_.population > 0, "cluster needs at least one peer");
  UPDP2P_ENSURE(stores_.empty() || stores_.size() == config_.population,
                "one store config per peer, or none");
  peers_.resize(config_.population);
  for (std::size_t i = 0; i < config_.population; ++i) {
    if (config_.sessions) {
      Peer& peer = peers_[i];
      peer.session_rng =
          common::StreamRng(config_.runtime.seed, i, kSessionPurpose);
      const auto [online, first_transition] =
          config_.sessions->start(peer.session_rng);
      peer.session_online = online;
      peer.next_transition = first_transition;
    }
    boot(i);
  }
}

PeerRuntime& LoopbackCluster::peer(common::PeerId id) {
  Peer& peer = peers_.at(id.value());
  UPDP2P_ENSURE(peer.runtime != nullptr, "peer is dead");
  return *peer.runtime;
}

const PeerRuntime& LoopbackCluster::peer(common::PeerId id) const {
  const Peer& peer = peers_.at(id.value());
  UPDP2P_ENSURE(peer.runtime != nullptr, "peer is dead");
  return *peer.runtime;
}

void LoopbackCluster::boot(std::size_t index) {
  Peer& peer = peers_[index];
  const auto self = static_cast<common::PeerId::rep_type>(index);
  RuntimeConfig config = config_.runtime;
  // A restarted peer rejoins at its own clock, not at zero.
  config.start_time = peer.clock;
  if (!stores_.empty()) config.store = stores_[index];
  if (config_.sessions) config.start_online = peer.session_online;
  const bool wants_store = config.store.enabled();
  peer.transport = network_.attach(common::PeerId(self));
  peer.runtime = std::make_unique<PeerRuntime>(std::move(config),
                                               *peer.transport);
  // A peer configured durable must actually have opened its store —
  // otherwise it silently runs volatile, and every recovery check
  // downstream reports "forgot state" instead of the real problem.
  UPDP2P_ENSURE(!wants_store || peer.runtime->durable(),
                "loopback cluster: a peer failed to open its store; is the "
                "data directory writable?");

  std::vector<common::PeerId> view;
  if (config_.initial_view_size == 0) {
    for (std::size_t j = 0; j < config_.population; ++j) {
      if (j != index) {
        view.emplace_back(static_cast<common::PeerId::rep_type>(j));
      }
    }
  } else {
    common::StreamRng rng(config_.runtime.seed, self, kBootstrapPurpose);
    // Sample from [0, population-1) and shift past self so the sample
    // stays uniform over the other peers.
    const auto others = static_cast<std::uint32_t>(config_.population - 1);
    const auto want = static_cast<std::uint32_t>(
        std::min<std::size_t>(config_.initial_view_size, others));
    for (const std::uint32_t pick :
         rng.sample_without_replacement(others, want)) {
      view.emplace_back(pick >= self ? pick + 1 : pick);
    }
  }
  peer.runtime->bootstrap(view);
}

std::optional<version::VersionId> LoopbackCluster::publish(
    common::PeerId from, std::string_view key, std::string payload) {
  return peer(from).publish(key, std::move(payload));
}

void LoopbackCluster::set_online(common::PeerId id, bool online) {
  PeerRuntime& runtime = peer(id);
  if (online) {
    if (!runtime.online()) ++reconnects_;
    runtime.go_online();
  } else {
    runtime.go_offline();
  }
}

void LoopbackCluster::set_skew(common::PeerId id, double skew) {
  UPDP2P_ENSURE(skew >= 0.0, "clock skew must be non-negative");
  peers_.at(id.value()).skew = skew;
}

void LoopbackCluster::kill(common::PeerId id) {
  Peer& peer = peers_.at(id.value());
  UPDP2P_ENSURE(peer.runtime != nullptr, "cannot kill a dead peer");
  // Runtime first (it borrows the transport), then the endpoint detaches.
  peer.runtime.reset();
  peer.transport.reset();
}

void LoopbackCluster::restart(common::PeerId id) {
  UPDP2P_ENSURE(!alive(id), "cannot restart a live peer");
  boot(id.value());
}

void LoopbackCluster::step(common::SimTime to) {
  network_.advance_to(to);
  const common::SimTime dt = to - now_;
  for (Peer& peer : peers_) {
    peer.clock += peer.skew * dt;
    if (peer.runtime) peer.runtime->poll(peer.clock);
  }
  now_ = to;
  if (config_.sessions) {
    for (std::size_t i = 0; i < peers_.size(); ++i) fire_transitions(i);
  }
}

void LoopbackCluster::fire_transitions(std::size_t index) {
  Peer& peer = peers_[index];
  while (peer.next_transition <= now_) {
    peer.session_online = !peer.session_online;
    // A dead peer's sessions keep running; it restarts in the current one.
    if (peer.runtime) {
      set_online(common::PeerId(static_cast<common::PeerId::rep_type>(index)),
                 peer.session_online);
    }
    peer.next_transition = config_.sessions->next_transition(
        peer.session_rng, peer.session_online, peer.next_transition);
  }
}

void LoopbackCluster::run_until(common::SimTime until, common::SimTime dt) {
  UPDP2P_ENSURE(dt > 0.0, "step size must be positive");
  while (now_ < until) {
    step(std::min(now_ + dt, until));
  }
}

bool LoopbackCluster::run_until_aware(const version::VersionId& id,
                                      common::SimTime deadline,
                                      common::SimTime dt) {
  UPDP2P_ENSURE(dt > 0.0, "step size must be positive");
  while (!all_online_aware(id)) {
    if (now_ >= deadline) return false;
    step(std::min(now_ + dt, deadline));
  }
  return true;
}

std::size_t LoopbackCluster::online_count() const {
  std::size_t count = 0;
  for (const Peer& peer : peers_) {
    if (peer.runtime && peer.runtime->online()) ++count;
  }
  return count;
}

std::size_t LoopbackCluster::aware_count(const version::VersionId& id) const {
  std::size_t count = 0;
  for (const Peer& peer : peers_) {
    if (peer.runtime && peer.runtime->node().knows_version(id)) ++count;
  }
  return count;
}

std::size_t LoopbackCluster::aware_online_count(
    const version::VersionId& id) const {
  std::size_t count = 0;
  for (const Peer& peer : peers_) {
    if (peer.runtime && peer.runtime->online() &&
        peer.runtime->node().knows_version(id)) {
      ++count;
    }
  }
  return count;
}

std::optional<common::PeerId> LoopbackCluster::pick_writer() {
  std::vector<common::PeerId> online;
  std::vector<common::PeerId> confident;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const PeerRuntime* runtime = peers_[i].runtime.get();
    if (runtime == nullptr || !runtime->online()) continue;
    const common::PeerId id(static_cast<common::PeerId::rep_type>(i));
    online.push_back(id);
    if (runtime->node().confident(runtime->current_round())) {
      confident.push_back(id);
    }
  }
  if (online.empty()) return std::nullopt;
  const std::vector<common::PeerId>& pool =
      confident.empty() ? online : confident;
  return pool[pick_rng_.pick_index(pool.size())];
}

std::optional<version::VersionedValue> LoopbackCluster::query(
    std::string_view key, std::size_t replicas, gossip::QueryRule rule) {
  std::vector<common::PeerId> online;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const PeerRuntime* runtime = peers_[i].runtime.get();
    if (runtime != nullptr && runtime->online()) {
      online.emplace_back(static_cast<common::PeerId::rep_type>(i));
    }
  }
  if (online.empty()) return std::nullopt;
  pick_rng_.shuffle(std::span<common::PeerId>(online));
  online.resize(std::min(replicas, online.size()));

  std::vector<gossip::QueryAnswer> answers;
  answers.reserve(online.size());
  for (const common::PeerId id : online) {
    const PeerRuntime& runtime = peer(id);
    answers.push_back(gossip::QueryAnswer{
        id, runtime.read(key),
        runtime.node().confident(runtime.current_round())});
  }
  return gossip::resolve_query(answers, rule);
}

RuntimeStats LoopbackCluster::totals() const {
  RuntimeStats sum;
  for (const Peer& peer : peers_) {
    if (peer.runtime) accumulate(sum, peer.runtime->stats());
  }
  return sum;
}

}  // namespace updp2p::runtime

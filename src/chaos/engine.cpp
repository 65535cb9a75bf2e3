#include "chaos/engine.hpp"

#include <cstdio>
#include <memory>
#include <optional>

#include "chaos/properties.hpp"
#include "common/ensure.hpp"
#include "net/latency.hpp"
#include "runtime/loopback_cluster.hpp"
#include "sim/sweep_pool.hpp"

namespace updp2p::chaos {

namespace {

[[nodiscard]] std::string format_time(common::SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", t);
  return buf;
}

[[nodiscard]] common::PeerId peer_id(std::size_t index) {
  return common::PeerId(static_cast<common::PeerId::rep_type>(index));
}

/// What the harness remembers about one peer across its lifetimes; the
/// runtime, clock and store config live in the cluster.
struct PeerLog {
  unsigned restarts = 0;
  unsigned wipes = 0;
  /// Content digest captured at kill time when the store was intact and
  /// fault-free; restart must recover exactly this.
  std::optional<common::Digest128> killed_digest;
};

[[nodiscard]] bool faulted(const store::StoreConfig& store) noexcept {
  const store::StoreFaults* faults = store.faults.get();
  return faults != nullptr &&
         (faults->appends_failed > 0 || faults->snapshots_failed > 0 ||
          faults->snapshots_torn > 0 || faults->fail_appends ||
          faults->fail_snapshots || faults->torn_snapshots);
}

void remove_store_files(const store::StoreConfig& store) {
  (void)std::remove((store.data_dir + "/wal.log").c_str());
  (void)std::remove((store.data_dir + "/snapshot.bin").c_str());
}

class Engine {
 public:
  Engine(const Scenario& scenario, std::uint64_t seed,
         const ChaosOptions& options)
      : scenario_(scenario),
        seed_(seed),
        options_(options),
        injector_(scenario.population),
        tracker_(scenario.population),
        logs_(scenario.population) {
    UPDP2P_ENSURE(scenario_.durable.empty() || !options_.data_root.empty(),
                  "scenario has durable peers; ChaosOptions::data_root "
                  "must be set");
    report_.scenario = scenario_.name;
    report_.seed = seed;
    report_.mutation = options_.mutation;
  }

  ChaosReport run();

 private:
  void trace(const std::string& line) {
    if (options_.keep_trace) {
      report_.trace.push_back("t=" + format_time(cluster_->now()) + " " +
                              line);
    }
  }

  [[nodiscard]] runtime::LoopbackClusterConfig cluster_config() const {
    runtime::LoopbackClusterConfig config;
    config.population = scenario_.population;
    config.runtime.gossip.fanout_fraction = scenario_.fanout;
    config.runtime.gossip.estimated_total_replicas = scenario_.population;
    config.runtime.gossip.acks.enabled = scenario_.acks;
    config.runtime.retry.max_attempts = scenario_.retry_attempts;
    config.runtime.retry.initial_timeout = scenario_.retry_initial;
    config.runtime.round_duration = scenario_.round;
    config.runtime.tick_duration = scenario_.tick;
    config.runtime.seed = seed_;
    config.network.seed = seed_;
    config.network.loss_probability = scenario_.base_loss;
    if (scenario_.latency_hi > scenario_.latency_lo) {
      config.network.latency = std::make_shared<net::UniformLatency>(
          scenario_.latency_lo, scenario_.latency_hi);
    } else {
      config.network.latency =
          std::make_shared<net::ConstantLatency>(scenario_.latency_lo);
    }
    config.initial_view_size = scenario_.view;
    return config;
  }

  void kill_peer(common::PeerId id, bool wipe);
  void restart_peer(common::PeerId id);
  void apply_op(const Op& op);
  void checkpoint(std::size_t phase_index);

  const Scenario& scenario_;
  std::uint64_t seed_;
  const ChaosOptions& options_;
  FaultInjector injector_;
  PropertyTracker tracker_;
  std::vector<PeerLog> logs_;
  /// Per-peer store configs (volatile unless the scenario lists the peer
  /// durable); the cluster holds copies sharing the StoreFaults switchboard.
  std::vector<store::StoreConfig> stores_;
  /// Declared after the injector it borrows as its network's link policy,
  /// so it is torn down first.
  std::optional<runtime::LoopbackCluster> cluster_;
  std::vector<std::uint64_t> digest_words_;
  ChaosReport report_;
};

void Engine::kill_peer(common::PeerId id, bool wipe) {
  if (!cluster_->alive(id)) {
    trace("kill " + std::to_string(id.value()) + " (already dead, skipped)");
    return;
  }
  PeerLog& log = logs_[id.value()];
  const store::StoreConfig& store = stores_[id.value()];
  // A durable, fault-free, unwiped store must come back bit-identical;
  // anything else legitimately forgets.
  if (store.enabled() && !wipe && !faulted(store)) {
    log.killed_digest = cluster_->peer(id).node().store().content_digest();
  } else {
    log.killed_digest.reset();
  }
  cluster_->kill(id);
  if (wipe) {
    ++log.wipes;
    remove_store_files(store);
  }
  if (wipe || !store.enabled()) tracker_.note_state_lost(id);
  trace("kill " + std::to_string(id.value()) + (wipe ? " wipe" : ""));
}

void Engine::restart_peer(common::PeerId id) {
  if (cluster_->alive(id)) {
    trace("restart " + std::to_string(id.value()) +
          " (already alive, skipped)");
    return;
  }
  PeerLog& log = logs_[id.value()];
  ++log.restarts;
  cluster_->restart(id);
  const runtime::PeerRuntime& peer = cluster_->peer(id);
  if (log.killed_digest) {
    tracker_.check_recovery(id, *log.killed_digest,
                            peer.node().store().content_digest());
    log.killed_digest.reset();
  }
  trace("restart " + std::to_string(id.value()) + " recovered_records=" +
        std::to_string(peer.stats().wal_replayed));
}

void Engine::apply_op(const Op& op) {
  switch (op.kind) {
    case OpKind::kPartition:
      injector_.set_partition(op.groups);
      trace("partition into " + std::to_string(op.groups.size()) +
            "+ groups");
      break;
    case OpKind::kHeal:
      injector_.clear_network_faults();
      trace("heal");
      break;
    case OpKind::kLinkLoss:
      for (const common::PeerId from : op.peers) {
        for (const common::PeerId to : op.dst) {
          if (from != to) injector_.set_link_loss(from, to, op.a);
        }
      }
      trace("linkloss " + std::to_string(op.peers.size()) + "x" +
            std::to_string(op.dst.size()) + " links");
      break;
    case OpKind::kLinkDelay:
      for (const common::PeerId from : op.peers) {
        for (const common::PeerId to : op.dst) {
          if (from != to) injector_.set_link_delay(from, to, op.a);
        }
      }
      trace("linkdelay " + std::to_string(op.peers.size()) + "x" +
            std::to_string(op.dst.size()) + " links");
      break;
    case OpKind::kDuplicate:
      injector_.set_duplicate(op.a);
      trace("dup window");
      break;
    case OpKind::kReorder:
      injector_.set_reorder(op.a, op.b);
      trace("reorder window");
      break;
    case OpKind::kOffline:
      for (const common::PeerId id : op.peers) {
        if (cluster_->alive(id)) cluster_->set_online(id, false);
      }
      trace("offline " + std::to_string(op.peers.size()) + " peers");
      break;
    case OpKind::kOnline:
      for (const common::PeerId id : op.peers) {
        if (cluster_->alive(id)) cluster_->set_online(id, true);
      }
      trace("online " + std::to_string(op.peers.size()) + " peers");
      break;
    case OpKind::kSkew:
      for (const common::PeerId id : op.peers) cluster_->set_skew(id, op.a);
      trace("skew x" + std::to_string(op.peers.size()));
      break;
    case OpKind::kKill:
      for (const common::PeerId id : op.peers) kill_peer(id, op.wipe);
      break;
    case OpKind::kRestart:
      for (const common::PeerId id : op.peers) restart_peer(id);
      break;
    case OpKind::kDiskFault:
      for (const common::PeerId id : op.peers) {
        store::StoreFaults* faults = stores_[id.value()].faults.get();
        if (faults == nullptr) continue;  // volatile peer: benign no-op
        faults->fail_appends = op.disk == DiskFaultMode::kAppends ||
                               op.disk == DiskFaultMode::kAll;
        faults->fail_snapshots = op.disk == DiskFaultMode::kSnapshots ||
                                 op.disk == DiskFaultMode::kAll;
        faults->torn_snapshots = op.disk == DiskFaultMode::kTorn;
      }
      trace("disk-fault " + std::to_string(op.peers.size()) + " peers");
      break;
    case OpKind::kDiskOk:
      for (const common::PeerId id : op.peers) {
        store::StoreFaults* faults = stores_[id.value()].faults.get();
        if (faults == nullptr) continue;
        faults->fail_appends = false;
        faults->fail_snapshots = false;
        faults->torn_snapshots = false;
      }
      trace("disk-ok " + std::to_string(op.peers.size()) + " peers");
      break;
    case OpKind::kSnapshot:
      for (const common::PeerId id : op.peers) {
        if (cluster_->alive(id)) (void)cluster_->peer(id).snapshot_now();
      }
      trace("snapshot " + std::to_string(op.peers.size()) + " peers");
      break;
    case OpKind::kPublish: {
      if (!cluster_->alive(op.peer) || !cluster_->peer(op.peer).online()) {
        trace("publish " + op.key + " via " +
              std::to_string(op.peer.value()) +
              " skipped (peer dead/offline)");
        break;
      }
      // Deterministic payload: a function of the key and how many
      // publishes preceded it, never of wall time.
      const std::string payload =
          op.key + "#" + std::to_string(report_.published) + "@" +
          std::to_string(seed_);
      const auto id = cluster_->publish(op.peer, op.key, payload);
      if (id) {
        ++report_.published;
        tracker_.note_published(
            *cluster_->peer(op.peer).node().read(op.key), op.peer);
        trace("publish " + op.key + " via " +
              std::to_string(op.peer.value()) + " -> " + id->to_string());
      } else {
        trace("publish " + op.key + " via " +
              std::to_string(op.peer.value()) + " rejected");
      }
      break;
    }
  }
}

void Engine::checkpoint(std::size_t phase_index) {
  digest_words_.push_back(0xC4A05'0000 + phase_index);
  for (std::size_t i = 0; i < logs_.size(); ++i) {
    const bool alive = cluster_->alive(peer_id(i));
    const runtime::PeerRuntime* peer =
        alive ? &cluster_->peer(peer_id(i)) : nullptr;
    std::uint64_t flags = 0;
    if (peer != nullptr) {
      flags |= 1;
      if (peer->online()) flags |= 2;
      const common::Digest128& digest = peer->node().store().content_digest();
      digest_words_.push_back(digest.hi);
      digest_words_.push_back(digest.lo);
    } else {
      digest_words_.push_back(0);
      digest_words_.push_back(0);
    }
    flags |= static_cast<std::uint64_t>(logs_[i].restarts) << 8;
    flags |= static_cast<std::uint64_t>(logs_[i].wipes) << 24;
    digest_words_.push_back(flags);
    if (peer != nullptr) {
      const runtime::RuntimeStats& stats = peer->stats();
      digest_words_.push_back(stats.datagrams_out);
      digest_words_.push_back(stats.datagrams_in);
      digest_words_.push_back(stats.retransmits);
      digest_words_.push_back(stats.wal_appends);
    } else {
      for (int k = 0; k < 4; ++k) digest_words_.push_back(0);
    }
  }
  const net::InprocNetworkStats& net_stats = cluster_->network().stats();
  digest_words_.push_back(net_stats.datagrams_submitted);
  digest_words_.push_back(net_stats.datagrams_delivered);
  digest_words_.push_back(net_stats.dropped_loss);
  digest_words_.push_back(net_stats.dropped_offline);
  digest_words_.push_back(net_stats.dropped_policy);
  digest_words_.push_back(net_stats.datagrams_duplicated);
  injector_.fold(digest_words_);
}

ChaosReport Engine::run() {
  stores_.resize(scenario_.population);
  for (std::size_t i = 0; i < scenario_.population; ++i) {
    if (!scenario_.is_durable(peer_id(i))) continue;
    store::StoreConfig& store = stores_[i];
    store.data_dir = options_.data_root + "/peer-" + std::to_string(i);
    store.snapshot_every_records = scenario_.snapshot_every;
    store.faults = std::make_shared<store::StoreFaults>();
    // A run is a pure function of (scenario, seed): leftovers from a
    // previous run over the same data_root would replay into the node
    // (and, same seed, collide with freshly minted version ids).
    remove_store_files(store);
  }
  cluster_.emplace(cluster_config(), stores_);
  cluster_->network().set_link_policy(&injector_);
  injector_.set_mutation(options_.mutation);

  for (std::size_t p = 0; p < scenario_.phases.size(); ++p) {
    const Phase& phase = scenario_.phases[p];
    trace("--- phase " + std::to_string(p) + " (" +
          format_time(phase.duration) + "s)");
    // Ops fire back-to-back with no time elapsing between them; sequences
    // like `disk-fault torn; snapshot; kill` rely on that atomicity.
    for (const Op& op : phase.ops) apply_op(op);
    cluster_->run_until(cluster_->now() + phase.duration, scenario_.tick);

    for (std::size_t i = 0; i < logs_.size(); ++i) {
      if (cluster_->alive(peer_id(i))) {
        tracker_.observe(peer_id(i), cluster_->peer(peer_id(i)).node());
      }
    }
    checkpoint(p);
  }

  report_.peers.reserve(logs_.size());
  for (std::size_t i = 0; i < logs_.size(); ++i) {
    PeerSummary summary;
    summary.alive = cluster_->alive(peer_id(i));
    summary.durable = stores_[i].enabled();
    summary.restarts = logs_[i].restarts;
    summary.wipes = logs_[i].wipes;
    if (summary.alive) {
      const runtime::PeerRuntime& peer = cluster_->peer(peer_id(i));
      summary.online = peer.online();
      summary.state = peer.node().store().content_digest();
      // Eventual delivery over the final live online set.
      if (summary.online) tracker_.check_final(peer_id(i), peer.node());
    } else {
      summary.online = false;
    }
    report_.peers.push_back(summary);
  }
  report_.phases = scenario_.phases.size();
  report_.violations = tracker_.violations();
  report_.trace_digest = common::digest128(digest_words_);
  report_.network = cluster_->network().stats();
  report_.injector = injector_.stats();
  report_.totals = cluster_->totals();
  return std::move(report_);
}

}  // namespace

ChaosReport run_scenario(const Scenario& scenario, std::uint64_t seed,
                         const ChaosOptions& options) {
  Engine engine(scenario, seed, options);
  return engine.run();
}

std::vector<ChaosReport> run_seed_sweep(const Scenario& scenario,
                                        std::span<const std::uint64_t> seeds,
                                        const ChaosOptions& options,
                                        unsigned threads) {
  std::vector<ChaosReport> reports(seeds.size());
  sim::SweepPool::shared().run(
      static_cast<unsigned>(seeds.size()), threads, [&](unsigned i) {
        ChaosOptions run_options = options;
        if (!options.data_root.empty()) {
          run_options.data_root =
              options.data_root + "/run-" + std::to_string(i);
        }
        reports[i] = run_scenario(scenario, seeds[i], run_options);
      });
  return reports;
}

}  // namespace updp2p::chaos

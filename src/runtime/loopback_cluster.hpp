// LoopbackCluster — the repository's one continuous-time cluster: N
// PeerRuntimes over one deterministic InprocNetwork.
//
// Every peer is a full PeerRuntime (codec, timer queue, retry/backoff,
// optional durable store) and datagrams travel through the virtual-time
// inproc switch, so a run exercises the real wire path and is a pure
// function of (config, calls made on it). The continuous-time paper experiments
// (bench/latency_distribution, pull_phase, sustained_updates), the chaos
// harness and the loopback golden all step this one class.
//
// Per peer the cluster keeps what a deployment would keep outside the
// runtime:
//   * a local clock advanced by skew × each global step (skew 1 unless
//     set_skew says otherwise); it keeps running while the peer is dead;
//   * the store config the peer boots and restarts with (kill/restart);
//   * optionally, exponential on/off sessions from churn::SessionProcess,
//     drawn from the peer's own StreamRng purpose. Transitions due by the
//     end of a step fire after that step's polls; without a session process,
//     session control is external (set_online).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "churn/churn_model.hpp"
#include "gossip/query.hpp"
#include "net/inproc_transport.hpp"
#include "runtime/peer_runtime.hpp"

namespace updp2p::runtime {

struct LoopbackClusterConfig {
  std::size_t population = 8;
  /// Per-peer runtime template; `seed` also keys the network when
  /// `network.seed` is left at its default.
  RuntimeConfig runtime;
  net::InprocNetworkConfig network;
  /// Peers each seed their view with the full membership when 0, otherwise
  /// with this many deterministic samples.
  std::size_t initial_view_size = 0;
  /// Exponential online/offline sessions driving go_online/go_offline. Each
  /// peer starts in a state drawn from the stationary distribution (which
  /// overrides runtime.start_online). Unset: sessions are external.
  std::optional<churn::SessionProcess> sessions;
};

class LoopbackCluster {
 public:
  /// `stores[i]`, when given, replaces `config.runtime.store` for peer i at
  /// boot and at every restart; an empty vector keeps the template for all.
  /// A peer whose store config is enabled must open its store.
  explicit LoopbackCluster(LoopbackClusterConfig config,
                           std::vector<store::StoreConfig> stores = {});

  [[nodiscard]] std::size_t population() const noexcept {
    return peers_.size();
  }
  /// The peer's runtime; the peer must be alive.
  [[nodiscard]] PeerRuntime& peer(common::PeerId id);
  [[nodiscard]] const PeerRuntime& peer(common::PeerId id) const;
  [[nodiscard]] bool alive(common::PeerId id) const {
    return peers_.at(id.value()).runtime != nullptr;
  }
  [[nodiscard]] net::InprocNetwork& network() noexcept { return network_; }
  [[nodiscard]] common::SimTime now() const noexcept { return now_; }

  /// Publishes from `from` (must be online) and returns the version id.
  std::optional<version::VersionId> publish(common::PeerId from,
                                            std::string_view key,
                                            std::string payload);

  /// External churn control for a live peer.
  void set_online(common::PeerId id, bool online);
  /// Offline→online transitions so far (set_online and sessions).
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return reconnects_;
  }

  /// The peer's clock runs at `skew` local seconds per global second from
  /// the next step on.
  void set_skew(common::PeerId id, double skew);
  /// Destroys the peer's runtime and endpoint; its store files stay.
  void kill(common::PeerId id);
  /// Boots a dead peer over its store config at its current local time.
  void restart(common::PeerId id);

  /// Steps virtual time to `until` in `dt` increments: each step delivers
  /// due datagrams, advances every clock, polls every live runtime in peer
  /// order, then fires due session transitions.
  void run_until(common::SimTime until, common::SimTime dt = 0.05);

  /// Steps until every *online* peer knows `id` or `deadline` passes.
  /// Returns true on convergence.
  bool run_until_aware(const version::VersionId& id, common::SimTime deadline,
                       common::SimTime dt = 0.05);

  [[nodiscard]] std::size_t online_count() const;
  /// Live peers (online or not) whose node has stored version `id`.
  [[nodiscard]] std::size_t aware_count(const version::VersionId& id) const;
  /// Online peers whose node has stored version `id`.
  [[nodiscard]] std::size_t aware_online_count(
      const version::VersionId& id) const;
  [[nodiscard]] bool all_online_aware(const version::VersionId& id) const {
    return aware_online_count(id) == online_count();
  }

  /// A random online peer, preferring confident (recently synced) ones —
  /// where a user would realistically originate a write. nullopt while
  /// nobody is online.
  [[nodiscard]] std::optional<common::PeerId> pick_writer();

  /// Omniscient §4.4 read: resolves the stores of up to `replicas` random
  /// online peers under `rule`, without sending a message. nullopt when
  /// nothing was found or nobody is online.
  [[nodiscard]] std::optional<version::VersionedValue> query(
      std::string_view key, std::size_t replicas, gossip::QueryRule rule);

  /// RuntimeStats summed over the live peers — a compact fingerprint for
  /// golden tests.
  [[nodiscard]] RuntimeStats totals() const;

 private:
  struct Peer {
    std::unique_ptr<net::InprocTransport> transport;
    std::unique_ptr<PeerRuntime> runtime;
    double skew = 1.0;            ///< local seconds per global second
    common::SimTime clock = 0.0;  ///< local clock (runs while dead)
    bool session_online = true;
    common::SimTime next_transition = 0.0;
    common::StreamRng session_rng;
  };

  void boot(std::size_t index);
  void step(common::SimTime to);
  void fire_transitions(std::size_t index);

  LoopbackClusterConfig config_;
  std::vector<store::StoreConfig> stores_;
  net::InprocNetwork network_;
  std::vector<Peer> peers_;
  common::StreamRng pick_rng_;
  std::uint64_t reconnects_ = 0;
  common::SimTime now_ = 0.0;
};

}  // namespace updp2p::runtime

// ReplicatedIndex — the assembled system.
//
// This is the deployment story of the paper in one object: a P-Grid trie
// partitions the key space; the peers responsible for a partition form a
// replica group; every group keeps its partition quasi-consistent with the
// hybrid push/pull gossip protocol; queries route via P-Grid and resolve
// across several replicas (§4.4).
//
//   ReplicatedIndex index(config);
//   index.put(origin, "users/alice", "profile-v1");   // routed + gossiped
//   index.step_rounds(10);                            // let gossip work
//   auto v = index.get(origin, "users/alice");        // routed + resolved
//
// Availability is driven externally (set_online / attach a ChurnModel
// schedule): offline peers neither route, nor receive, nor answer — they
// reconcile through the pull phase when they return, exactly like the
// paper's replicas.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "churn/churn_model.hpp"
#include "common/rng.hpp"
#include "gossip/codec.hpp"
#include "gossip/node.hpp"
#include "gossip/query.hpp"
#include "net/message_bus.hpp"
#include "pgrid/pgrid.hpp"

namespace updp2p::pgrid {

struct ReplicatedIndexConfig {
  PGridConfig grid;
  /// Group-level gossip parameters. `estimated_total_replicas` is set per
  /// replica group automatically; `fanout_fraction` applies within groups.
  gossip::GossipConfig gossip;
  std::uint64_t seed = 0xfeed;
};

/// Result of a routed operation.
struct RouteOutcome {
  bool ok = false;
  common::PeerId responsible = common::PeerId::invalid();
  unsigned hops = 0;
  unsigned attempts = 0;
};

class ReplicatedIndex {
 public:
  explicit ReplicatedIndex(ReplicatedIndexConfig config);

  // --- availability ---------------------------------------------------------

  /// Flips a peer online/offline. Coming online triggers the pull phase;
  /// going offline abandons in-flight expectations.
  void set_online(common::PeerId peer, bool online);
  [[nodiscard]] bool is_online(common::PeerId peer) const {
    return online_[peer.value()];
  }
  [[nodiscard]] std::size_t online_count() const;

  // --- time -------------------------------------------------------------------

  /// One gossip round: deliver queued messages to online peers, then run
  /// per-peer timers (pull-on-staleness, ack expiry).
  void step_round();
  void step_rounds(unsigned rounds) {
    for (unsigned i = 0; i < rounds; ++i) step_round();
  }

  /// Drives availability from a churn model for `rounds` rounds: each round
  /// the model advances and every peer whose state flipped gets the proper
  /// reconnect/disconnect treatment. The model's population must match.
  void drive(churn::ChurnModel& churn, common::StreamRng& rng,
             unsigned rounds);
  [[nodiscard]] common::Round current_round() const noexcept { return round_; }

  // --- application API ----------------------------------------------------------

  /// Routes from `origin` to the partition responsible for `key` and
  /// publishes the update there (push phase starts immediately).
  RouteOutcome put(common::PeerId origin, std::string_view key,
                   std::string payload, unsigned route_retries = 5);

  /// Deletes `key` via a tombstone published at its responsible partition.
  RouteOutcome remove(common::PeerId origin, std::string_view key,
                      unsigned route_retries = 5);

  /// Routes to the responsible partition and resolves the answers of up to
  /// `replicas_to_ask` online group members under `rule`.
  [[nodiscard]] std::optional<version::VersionedValue> get(
      common::PeerId origin, std::string_view key,
      gossip::QueryRule rule = gossip::QueryRule::kHybrid,
      std::size_t replicas_to_ask = 3, unsigned route_retries = 5);

  // --- introspection ---------------------------------------------------------------

  [[nodiscard]] const PGridNetwork& grid() const noexcept { return grid_; }
  [[nodiscard]] gossip::ReplicaNode& node(common::PeerId peer) {
    return *nodes_.at(peer.value());
  }
  [[nodiscard]] const gossip::ReplicaNode& node(common::PeerId peer) const {
    return *nodes_.at(peer.value());
  }
  [[nodiscard]] std::size_t population() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] net::BusStats bus_stats() const { return bus_.stats(); }

 private:
  RouteOutcome route(common::PeerId origin, const BitPath& key_path,
                     unsigned retries);
  /// Encodes each of `out`'s messages once and queues one envelope per
  /// target naming that frame; `out` is left cleared with capacity
  /// retained.
  void dispatch(common::PeerId from, std::vector<gossip::OutboundMessage>& out);

  ReplicatedIndexConfig config_;
  common::StreamRng rng_;
  /// Single-threaded driver: one scratch arena serves every node.
  gossip::WorkArena arena_;
  PGridNetwork grid_;
  std::vector<std::unique_ptr<gossip::ReplicaNode>> nodes_;
  std::vector<bool> online_;
  /// One shard of encoded frames: the single-threaded index delivers in
  /// the bus's canonical (to, from, seq) order through
  /// ReplicaNode::handle_frame and records outcomes in shard_stats(0).
  net::ShardedMessageBus<gossip::WireBytes> bus_;
  std::vector<std::uint32_t> send_seq_;  ///< per-sender envelope sequence
  std::vector<net::Envelope> batch_;
  /// Reusable reaction buffer for every delivery and hook.
  std::vector<gossip::OutboundMessage> reactions_;
  common::Round round_ = 0;
};

}  // namespace updp2p::pgrid

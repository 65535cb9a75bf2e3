// Round-synchronous simulator of the push phase (+ optional pull), the
// discrete-time model of paper §3/§4.1: messages sent in round t are
// processed in round t+1, online peers stay with probability σ per round,
// and the per-round metrics mirror the analysis' M(t) and F_aware(t).
//
// This simulator is an *independent* implementation of the protocol (it
// executes ReplicaNode state machines, not the recurrences), so agreement
// with analysis::evaluate_push is a genuine cross-validation. Messages
// travel as encoded frames, one per message however many targets it names,
// and every delivery goes through ReplicaNode::handle_frame, the receive
// path a deployed peer runs.
//
// Intra-run parallelism: the population is cut into `shard_threads`
// contiguous shards. Each round, every shard task delivers the messages
// addressed to its own nodes (collected from the sharded bus in canonical
// (to, from, seq) order) and runs its nodes' timers; churn, hooks and
// metric merging stay sequential between rounds. Results are
// bit-identical at ANY shard/thread count: node RNGs are counter-based
// per-node streams, loss draws are keyed by (seed, recipient, round), the
// delivery order is canonical, and every merged counter is a sum. See
// DESIGN.md "Sharded round engine".
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "churn/churn_model.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "gossip/arena.hpp"
#include "gossip/codec.hpp"
#include "gossip/node.hpp"
#include "net/message_bus.hpp"
#include "sim/metrics.hpp"

namespace updp2p::sim {

struct RoundSimConfig {
  std::size_t population = 1'000;
  gossip::GossipConfig gossip;
  /// Peers each replica initially knows (0 = the full replica set, the
  /// paper's analysis assumption; small values exercise the name-dropper
  /// membership growth).
  std::size_t initial_view_size = 0;
  common::Round max_rounds = 200;
  /// Stop when no protocol message has been exchanged for this many rounds.
  common::Round quiescence_rounds = 3;
  /// Run the pull machinery for peers that come online mid-run.
  bool reconnect_pull = true;
  /// Run per-round timer processing (no-update-timeout pulls, ack expiry).
  bool round_timers = true;
  double message_loss = 0.0;
  /// Deprecated and must stay true: every message travels as encoded
  /// frames. Kept only so configurations that still assign it compile.
  bool serialize_messages = true;
  std::uint64_t seed = 0x5eed;
  /// Shards (= maximum worker threads) one round is stepped across.
  /// 1 = sequential; 0 = one per hardware thread. Metrics and node state
  /// are bit-identical at every value.
  unsigned shard_threads = 1;
};

class RoundSimulator {
 public:
  /// The churn model's population must match `config.population`.
  RoundSimulator(RoundSimConfig config,
                 std::unique_ptr<churn::ChurnModel> churn);

  /// Resets churn/network state and propagates one update published by
  /// `initiator` (or by a random online peer when nullopt). Returns the
  /// per-round metrics of this update's dissemination.
  RunMetrics propagate_update(
      std::optional<common::PeerId> initiator = std::nullopt,
      std::string key = "item", std::string payload = "v1");

  /// Runs `rounds` additional rounds of the current network (message
  /// delivery, churn, timers) without publishing; used to exercise the
  /// pull phase after a push completed.
  void run_rounds(common::Round rounds);

  [[nodiscard]] gossip::ReplicaNode& node(common::PeerId peer) {
    return nodes_.at(peer.value());
  }
  [[nodiscard]] const gossip::ReplicaNode& node(common::PeerId peer) const {
    return nodes_.at(peer.value());
  }
  [[nodiscard]] std::size_t population() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const churn::ChurnModel& churn() const noexcept {
    return *churn_;
  }
  [[nodiscard]] net::BusStats bus_stats() const { return bus_.stats(); }
  /// Shards one round is stepped across (resolved from shard_threads).
  [[nodiscard]] unsigned shard_count() const noexcept { return shard_count_; }
  [[nodiscard]] common::Round current_round() const noexcept { return round_; }

  /// Fraction of *online* peers that know `id` (the paper's F_aware).
  [[nodiscard]] double aware_fraction(const version::VersionId& id) const;
  /// Count of online peers knowing `id`.
  [[nodiscard]] std::size_t aware_online(const version::VersionId& id) const;

 private:
  /// Per-shard state: the scratch arena shared by the shard's nodes, the
  /// delivery batch, the reaction buffer, and this round's counters. The
  /// whole block is cache-line aligned so two shard tasks never
  /// false-share counter lines.
  struct alignas(64) Shard {
    gossip::WorkArena arena;
    std::vector<net::Envelope> batch;
    std::vector<gossip::OutboundMessage> reactions;
    std::uint64_t push_messages = 0;
    std::uint64_t pull_messages = 0;
    std::uint64_t ack_messages = 0;
    std::uint64_t query_messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t new_aware = 0;  ///< awareness gained this round (summed)

    void reset_counters() noexcept {
      push_messages = pull_messages = ack_messages = query_messages = 0;
      bytes = duplicates = new_aware = 0;
    }
  };

  /// Moves `out`'s messages onto the bus from the task owning `shard`
  /// (which must be the sender's shard), classifying them for the shard's
  /// counters. Each message is encoded once, every target's envelope names
  /// that one frame, and every send counts as one message of the frame's
  /// length. `out` is left cleared with capacity retained.
  void dispatch_from(std::size_t shard, common::PeerId from,
                     std::vector<gossip::OutboundMessage>& out);
  /// Sequential-context dispatch (publish, reconnect hooks).
  void dispatch(common::PeerId from, std::vector<gossip::OutboundMessage>& out);
  void step_round(RunMetrics* metrics);
  /// One shard's slice of a round: deliver this shard's batch, then run
  /// its nodes' timers. Runs concurrently with other shards.
  void step_shard(unsigned shard);
  /// Arms incremental awareness tracking for `id` (the update being
  /// propagated): O(population) once, then O(1) per awareness change.
  void start_tracking(const version::VersionId& id);
  /// Folds a just-handled delivery into the shard's awareness counter.
  void note_awareness(std::uint32_t node_index, Shard& shard);

  RoundSimConfig config_;
  std::unique_ptr<churn::ChurnModel> churn_;
  /// Sequential-phase draws only (churn advance, publisher pick,
  /// bootstrap); never touched by shard tasks. Keyed
  /// (seed, 0, kDriverPurpose), apart from every node and loss stream.
  common::StreamRng rng_;
  std::vector<gossip::ReplicaNode> nodes_;
  net::ShardedMessageBus<gossip::WireBytes> bus_;
  unsigned shard_count_ = 1;
  std::vector<Shard> shards_;
  common::Round round_ = 0;

  // SoA hot-path node state, owned here so shard tasks touch flat arrays
  // instead of chasing per-node heap blocks. Element i is written only by
  // the shard that owns node i (or by the sequential phases), so plain
  // byte/word arrays are race-free.
  std::vector<std::uint8_t> online_;     ///< churn snapshot read by shards
  std::vector<std::uint8_t> aware_;      ///< i knows tracked_id_ — guarded-by(shard)
  std::vector<std::uint32_t> send_seq_;  ///< sender seq — guarded-by(shard)

  // Incremental metric state: awareness used to be an O(population) rescan
  // per round; shard tasks count newly-aware nodes and the merge step sums
  // them into aware_online_count_.
  bool tracking_ = false;
  version::VersionId tracked_id_{};
  std::size_t aware_online_count_ = 0;  ///< |{i : aware_[i] ∧ online(i)}|

  /// Reusable buffer for sequential-phase reactions (reconnect hooks).
  std::vector<gossip::OutboundMessage> reactions_scratch_;
};

/// Convenience: builds the simulator matching the analysis-model population
/// (BernoulliChurn with initial fraction and σ, no rejoins).
[[nodiscard]] std::unique_ptr<RoundSimulator> make_push_phase_simulator(
    RoundSimConfig config, double initial_online_fraction, double sigma);

}  // namespace updp2p::sim

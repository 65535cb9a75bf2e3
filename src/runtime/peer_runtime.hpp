// PeerRuntime — one deployed peer: a gossip node behind a live transport.
//
// The round simulators deliver encoded frames to ReplicaNode round by
// round; PeerRuntime drives the *same node type* from a byte-oriented
// datagram transport and a continuous clock:
//
//   * outbound protocol messages are encoded with gossip::codec and handed
//     to the Transport as datagrams: a message lists all its targets, so it
//     is encoded once and every target is sent straight from that frame;
//   * every inbound datagram takes one path: a header probe
//     (gossip::probe_frame) names it, the node takes the frame itself
//     (ReplicaNode::handle_frame), and only once the node accepted it do
//     the probed kind, version, nonce and value count cancel a retry and
//     decide the WAL append; garbage is counted and dropped — the codec is
//     fail-safe;
//   * a monotonic timer queue supplies the push-round cadence
//     (on_round_start) and per-message retry timers;
//   * datagrams whose arrival the protocol can confirm — pushes (via §6
//     acks), pull requests (via pull responses), query requests (via query
//     replies) — are retransmitted with capped exponential backoff + jitter
//     until the confirming message cancels the retry (runtime/retry.hpp):
//     requests within RetryPolicy::max_attempts transmissions, pushes
//     within kMaxPushTransmissions, because §6 never confirms a push to a
//     peer that already holds the version. Each in-flight send has one
//     entry in one retry table, keyed by the message that confirms it,
//     and the retries of one message share one copy of its frame;
//   * online/offline session control is external (go_online/go_offline),
//     so churn can be driven by an orchestrator, a test harness, or a real
//     process lifecycle.
//
// Time is explicit: the owner calls poll(now) from its event loop (virtual
// time over InprocTransport, a monotonic wall clock over UdpTransport).
// PeerRuntime never reads a clock itself — that is what makes the
// InprocTransport-backed cluster bit-deterministic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "gossip/codec.hpp"
#include "gossip/node.hpp"
#include "net/transport.hpp"
#include "runtime/retry.hpp"
#include "runtime/timer_queue.hpp"
#include "store/replica_store.hpp"

namespace updp2p::runtime {

struct RuntimeConfig {
  gossip::GossipConfig gossip;
  RetryPolicy retry;
  /// Wall/virtual seconds per push round (the cadence of on_round_start).
  common::SimTime round_duration = 1.0;
  /// Timer queue granularity: every timer deadline (round ticks, retries,
  /// snapshots) rounds up to a whole number of ticks.
  common::SimTime tick_duration = 0.05;
  /// Root seed; the node's stream is keyed (seed, peer id) exactly like
  /// the simulators key theirs, the retry jitter stream by a distinct
  /// purpose.
  std::uint64_t seed = 0x5eed;
  bool start_online = true;
  /// Epoch of this runtime's clock. A freshly booted peer starts at 0; a
  /// peer *restarted into a running cluster* (crash/recovery harnesses)
  /// passes the current cluster time so its round counter resumes at the
  /// current round — without this, the first round timer would replay
  /// every round since 0 in one poll. The first poll(now) must satisfy
  /// now >= start_time.
  common::SimTime start_time = 0.0;
  /// Durable replica store (WAL + snapshots). Disabled while
  /// store.data_dir is empty — the runtime then runs fully volatile,
  /// exactly as before the store existed.
  store::StoreConfig store;
};

struct RuntimeStats {
  std::uint64_t datagrams_out = 0;      ///< send attempts (incl. retransmits)
  std::uint64_t datagrams_in = 0;       ///< drained from the transport
  std::uint64_t decode_errors = 0;      ///< inbound bytes the codec rejected
  std::uint64_t retransmits = 0;
  std::uint64_t retries_armed = 0;
  std::uint64_t retries_cancelled = 0;  ///< confirming message arrived
  std::uint64_t retries_exhausted = 0;  ///< attempt budget ran out
  std::uint64_t rounds_ticked = 0;
  std::uint64_t dropped_while_offline = 0;
  /// First transmissions that allocated no frame buffer: every send but the
  /// one per retried message that copies the message's frame for its
  /// retries to share (a pull request or query to k targets copies once,
  /// not k times). >0 in any run that sends.
  std::uint64_t frames_reused = 0;
  /// Retransmissions that had to re-encode their payload. MUST stay 0: a
  /// retransmit resends the exact bytes its PendingSend shares; this
  /// counter is a tripwire asserted by the loopback golden test.
  std::uint64_t retransmit_reencodes = 0;
  // --- durable store (all zero while the store is disabled) ---------------
  std::uint64_t wal_appends = 0;          ///< frames made durable
  std::uint64_t wal_append_failures = 0;  ///< I/O failures (ran volatile)
  std::uint64_t wal_duplicates_skipped = 0;  ///< pushes already durable
  std::uint64_t wal_replayed = 0;         ///< frames replayed at recovery
  std::uint64_t wal_replay_rejected = 0;  ///< replayed frames that failed decode
  std::uint64_t snapshot_values_recovered = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t snapshot_failures = 0;
  /// PullResponse datagram bytes received while online — the §3 reconnect
  /// cost a durable store exists to shrink (live_recovery_test compares
  /// this exactly against pull-from-zero).
  std::uint64_t pull_response_bytes_in = 0;
};

class PeerRuntime {
 public:
  /// Transmissions of one push, the original included, whatever
  /// RetryPolicy::max_attempts allows beyond it. One retransmission masks
  /// an isolated loss of a first receipt or of its ack; a second loss in a
  /// row is left to the push phase's redundancy and to the pull phase.
  /// Pull and query requests, which every live recipient answers, keep the
  /// full max_attempts budget.
  static constexpr unsigned kMaxPushTransmissions = 2;

  /// The transport must outlive the runtime; its self() becomes the node
  /// id. Not thread-safe — runtime, transport and timers share one loop.
  PeerRuntime(RuntimeConfig config, net::Transport& transport);

  /// Seeds the initial membership view (§2).
  void bootstrap(std::span<const common::PeerId> initial_view);

  // --- application-facing API (all use the last polled time) ---------------

  /// Publishes locally and starts the push phase. Returns the new version
  /// id, or nullopt while offline (an offline peer cannot push).
  std::optional<version::VersionId> publish(std::string_view key,
                                            std::string payload);
  /// Tombstone-deletes and propagates the death certificate.
  bool remove(std::string_view key);
  [[nodiscard]] std::optional<version::VersionedValue> read(
      std::string_view key) const {
    return node_.read(key);
  }
  /// Message-based §4.4 query; returns the nonce to poll with (0 while
  /// offline).
  std::uint64_t begin_query(std::string_view key, gossip::QueryRule rule,
                            std::size_t replicas_to_ask);
  [[nodiscard]] gossip::QueryOutcome poll_query(std::uint64_t nonce);

  // --- session control ------------------------------------------------------

  /// Enters the online state: the transport starts listening, the node runs
  /// its §3 reconnect pull (or arms the §6 lazy pull), round ticks resume.
  void go_online();
  /// Leaves the network: in-flight retries are abandoned (§3 — expectations
  /// do not survive a disconnect), the transport stops listening.
  void go_offline();
  [[nodiscard]] bool online() const noexcept { return online_; }

  // --- event loop -----------------------------------------------------------

  /// Advances the runtime to `now` (monotone): drains the transport,
  /// hands each datagram to the node as a frame, fires due timers (round
  /// ticks, retransmits) and transmits everything the node emitted.
  void poll(common::SimTime now);

  /// Earliest pending timer deadline — how long an event loop may sleep
  /// when the socket stays quiet. nullopt when no timer is armed.
  [[nodiscard]] std::optional<common::SimTime> next_deadline() const {
    return timers_.next_deadline();
  }

  // --- introspection --------------------------------------------------------

  [[nodiscard]] common::PeerId id() const noexcept { return node_.id(); }
  [[nodiscard]] gossip::ReplicaNode& node() noexcept { return node_; }
  [[nodiscard]] const gossip::ReplicaNode& node() const noexcept {
    return node_;
  }
  [[nodiscard]] const RuntimeStats& stats() const noexcept { return stats_; }
  /// True when the durable store opened (recovery ran in the constructor).
  [[nodiscard]] bool durable() const noexcept { return store_.has_value(); }
  /// Why the store failed to open (empty when durable() or disabled).
  [[nodiscard]] const std::string& store_error() const noexcept {
    return store_error_;
  }
  [[nodiscard]] const store::ReplicaStore* replica_store() const noexcept {
    return store_ ? &*store_ : nullptr;
  }
  /// Forces a snapshot now (orderly shutdown); true when written or when
  /// nothing needed writing.
  bool snapshot_now();
  [[nodiscard]] common::SimTime now() const noexcept { return now_; }
  [[nodiscard]] common::Round current_round() const noexcept {
    return round_of(now_);
  }
  /// In-flight sends still awaiting their confirming message.
  [[nodiscard]] std::size_t pending_retries() const noexcept {
    return retries_.size();
  }

 private:
  /// What confirms an in-flight datagram.
  enum class Expect : std::uint8_t { kAck, kPullResponse, kQueryReply };

  /// An in-flight send to `to`, named by the message that will confirm
  /// it: an ack from `to` for `version`, any pull response from `to`, or a
  /// query reply from `to` carrying `nonce`. Fields the kind does not use
  /// stay default.
  struct RetryKey {
    Expect expect = Expect::kAck;
    common::PeerId to{};
    version::VersionId version{};  ///< kAck: the pushed version
    std::uint64_t nonce = 0;       ///< kQueryReply: the query nonce
    friend bool operator==(const RetryKey&, const RetryKey&) = default;
  };
  struct RetryKeyHash {
    std::size_t operator()(const RetryKey& key) const noexcept;
  };

  struct PendingSend {
    /// Exact datagram for retransmission, shared by every retry of the
    /// message that sent it.
    std::shared_ptr<const net::DatagramBytes> bytes;
    unsigned attempt = 0;      ///< retransmissions performed so far
    /// The entry's one pending timer; kInvalidTimer while none is pending
    /// (from the moment it fires until it is re-armed).
    TimerQueue::TimerId timer = TimerQueue::kInvalidTimer;
  };
  using RetryTable = std::unordered_map<RetryKey, PendingSend, RetryKeyHash>;

  /// A retry timer's callback. It points at the retry table's key instead
  /// of copying it; two pointers fit std::function's local buffer, so
  /// arming a timer does not allocate. The pointer is live whenever the
  /// timer fires: unordered_map nodes keep their address across rehash,
  /// an entry has at most one pending timer (schedule_retry_timer checks)
  /// and it is `PendingSend::timer` (release checks), and erase_retry,
  /// the only way out of the table, cancels that timer before erasing.
  struct RetryFire {
    PeerRuntime* runtime;
    const RetryKey* key;
    void operator()(common::SimTime /*at*/) const {
      runtime->on_retry_timer(*key);
    }
  };
  static_assert(std::is_trivially_copyable_v<RetryFire> &&
                    sizeof(RetryFire) <= 16,
                "a retry timer's callback must fit std::function's local "
                "buffer (16 bytes in libstdc++)");

  [[nodiscard]] common::Round round_of(common::SimTime at) const noexcept {
    return static_cast<common::Round>(at / config_.round_duration);
  }

  /// Encodes, transmits and (where a confirming signal exists) arms a
  /// retry for every message the node emitted. Consumes `messages`.
  /// Each message is encoded once into frame_ and sent to its targets in
  /// order. Its first target that arms a retry copies the frame once into
  /// an immutable shared buffer, which every retry of the message holds
  /// for exact-bytes retransmission.
  void transmit(std::vector<gossip::OutboundMessage>& messages);
  /// Delivers one drained datagram: probe, handle_frame, then the retry
  /// cancellation and WAL rules the accepted frame's probe decides.
  void deliver_datagram(net::InboundDatagram& datagram);
  /// The confirmation a send of `payload` to `to` waits for; nullopt when
  /// no protocol message confirms it (or, for a push, acks are off).
  [[nodiscard]] std::optional<RetryKey> awaited_confirmation(
      common::PeerId to, const gossip::GossipPayload& payload) const;
  /// A fresh send under `key` supersedes any stale in-flight entry (e.g.
  /// the node re-pushed the same version to the same target).
  void arm_retry(const RetryKey& key,
                 std::shared_ptr<const net::DatagramBytes> bytes);
  /// Arms the entry's timer, which points at the entry's key (see
  /// RetryFire). The entry must have no pending timer.
  void schedule_retry_timer(RetryTable::iterator entry);
  void on_retry_timer(const RetryKey& key);
  /// Ack / pull response / query reply arrived: cancel the matching retry,
  /// keyed from the accepted frame's probed kind, version and nonce.
  void note_confirmation(common::PeerId from, const gossip::FrameProbe& probe);
  /// Cancels the send's pending timer, if any, and drops its reference to
  /// the message's frame.
  void release(PendingSend& pending);
  /// Releases the entry, then erases it. Every erase goes through here,
  /// so no timer outlives the key it points at.
  void erase_retry(RetryTable::iterator entry);
  void arm_round_timer();
  void on_round_timer(common::SimTime at);
  void drop_all_retries();
  /// Opens the store and replays snapshot + log into the node (ctor only).
  void recover_from_store();
  /// Appends one received/synthesised frame; degrades to volatile on I/O
  /// failure (counted, never fatal — the protocol must keep running).
  void append_durable(common::PeerId from, common::Round round,
                      std::span<const std::byte> frame);
  /// Synthesises push frames for the key's maximal versions so LOCAL
  /// publishes/removes are as durable as received ones (no peer will ever
  /// push our own update back to us before a crash).
  void append_local_versions(std::string_view key);
  /// Count trigger after appends; timer trigger forces (if log non-empty).
  bool maybe_snapshot(bool timer_fired);
  void arm_snapshot_timer();

  RuntimeConfig config_;
  net::Transport& transport_;
  gossip::ReplicaNode node_;
  TimerQueue timers_;
  common::StreamRng jitter_rng_;
  bool online_ = true;
  common::SimTime now_ = 0.0;
  common::Round last_ticked_round_ = 0;
  TimerQueue::TimerId round_timer_ = TimerQueue::kInvalidTimer;
  std::optional<store::ReplicaStore> store_;
  std::string store_error_;
  TimerQueue::TimerId snapshot_timer_ = TimerQueue::kInvalidTimer;

  RetryTable retries_;

  std::vector<net::InboundDatagram> inbox_scratch_;
  std::vector<gossip::OutboundMessage> out_scratch_;
  /// The message being transmitted, encoded (transmit scratch);
  /// capacity-warm after the first few messages, so steady-state encodes
  /// allocate nothing.
  net::DatagramBytes frame_;
  RuntimeStats stats_;
};

}  // namespace updp2p::runtime

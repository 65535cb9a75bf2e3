#include "runtime/peer_runtime.hpp"

#include <algorithm>
#include <variant>

#include "common/ensure.hpp"
#include "gossip/codec.hpp"

namespace updp2p::runtime {

namespace {
/// Purpose key of the retry-jitter stream — distinct from the node's
/// protocol stream (purpose 0) under the same (seed, peer id).
constexpr std::uint64_t kJitterPurpose = 0xBACC;

[[nodiscard]] std::size_t hash_mix(std::size_t a, std::size_t b) noexcept {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}
}  // namespace

std::size_t PeerRuntime::RetryKeyHash::operator()(
    const RetryKey& key) const noexcept {
  std::size_t hash = hash_mix(std::hash<common::PeerId>{}(key.to),
                              std::hash<version::VersionId>{}(key.version));
  hash = hash_mix(hash, std::hash<std::uint64_t>{}(key.nonce));
  return hash_mix(hash, static_cast<std::size_t>(key.expect));
}

PeerRuntime::PeerRuntime(RuntimeConfig config, net::Transport& transport)
    : config_(std::move(config)),
      transport_(transport),
      node_(transport.self(), config_.gossip,
            common::StreamRng(config_.seed, transport.self().value())),
      timers_(config_.tick_duration),
      jitter_rng_(config_.seed, transport.self().value(), kJitterPurpose),
      online_(config_.start_online) {
  config_.gossip.validate();
  config_.retry.validate();
  UPDP2P_ENSURE(config_.round_duration > 0.0,
                "round duration must be positive");
  UPDP2P_ENSURE(config_.start_time >= 0.0, "start time must be non-negative");
  // A restarted peer rejoins at the cluster's current time: position the
  // clock, the timers and the round counter there before any timer is
  // armed, so the first round tick fires for the *next* round rather than
  // replaying rounds 1..now in one poll.
  now_ = config_.start_time;
  last_ticked_round_ = round_of(now_);
  timers_.advance(now_);
  // Recovery runs to completion before the transport can deliver a single
  // live datagram: the node first stands exactly where it died, then
  // rejoins the protocol.
  recover_from_store();
  arm_snapshot_timer();
  transport_.set_listening(online_);
  if (online_) arm_round_timer();
}

void PeerRuntime::recover_from_store() {
  if (!config_.store.enabled()) return;
  auto opened = store::ReplicaStore::open(config_.store, &store_error_);
  if (!opened) return;  // runs volatile; the owner can inspect store_error()
  store_ = std::move(*opened);
  store::SnapshotData snapshot = store_->take_snapshot_state();
  stats_.snapshot_values_recovered = snapshot.values.size();
  node_.import_durable_state(snapshot.membership, std::move(snapshot.values));
  // Replay the log tail through the SAME entry point live datagrams use,
  // with the recorded delivery context. Whatever the node emits (acks,
  // forwards) is discarded — those messages were already sent, or their
  // targets have long stopped waiting.
  std::vector<gossip::OutboundMessage> discard;
  store_->replay([&](const store::ReplicaStore::RecoveredFrame& record) {
    discard.clear();
    if (node_.handle_frame(record.from, record.frame, record.round,
                           discard)) {
      ++stats_.wal_replayed;
    } else {
      ++stats_.wal_replay_rejected;
    }
  });
}

void PeerRuntime::bootstrap(std::span<const common::PeerId> initial_view) {
  node_.bootstrap(initial_view);
}

std::optional<version::VersionId> PeerRuntime::publish(std::string_view key,
                                                       std::string payload) {
  if (!online_) return std::nullopt;
  out_scratch_ = node_.publish(key, std::move(payload), current_round());
  // Durable before the first push leaves: no peer will ever push our own
  // update back to us, so a crash between publish and the first ack would
  // otherwise lose it forever.
  append_local_versions(key);
  transmit(out_scratch_);
  const auto value = node_.read(key);
  if (!value) return std::nullopt;
  return value->id;
}

bool PeerRuntime::remove(std::string_view key) {
  if (!online_) return false;
  out_scratch_ = node_.remove(key, current_round());
  append_local_versions(key);
  transmit(out_scratch_);
  return true;
}

std::uint64_t PeerRuntime::begin_query(std::string_view key,
                                       gossip::QueryRule rule,
                                       std::size_t replicas_to_ask) {
  if (!online_) return 0;
  gossip::StartedQuery started =
      node_.begin_query(key, rule, replicas_to_ask, current_round());
  transmit(started.messages);
  return started.nonce;
}

gossip::QueryOutcome PeerRuntime::poll_query(std::uint64_t nonce) {
  return node_.poll_query(nonce, current_round());
}

void PeerRuntime::go_online() {
  if (online_) return;
  online_ = true;
  transport_.set_listening(true);
  // Rounds spent offline are not replayed — the pull phase, not the round
  // clock, is the recovery mechanism (§3).
  last_ticked_round_ = current_round();
  out_scratch_.clear();
  node_.on_reconnect(current_round(), out_scratch_);
  transmit(out_scratch_);
  arm_round_timer();
}

void PeerRuntime::go_offline() {
  if (!online_) return;
  online_ = false;
  node_.on_disconnect(current_round());
  // §3: in-flight expectations do not survive a disconnect.
  drop_all_retries();
  timers_.cancel(round_timer_);
  round_timer_ = TimerQueue::kInvalidTimer;
  transport_.set_listening(false);
}

void PeerRuntime::poll(common::SimTime now) {
  UPDP2P_ENSURE(now >= now_, "poll time must be monotone");
  now_ = now;

  inbox_scratch_.clear();
  transport_.drain(inbox_scratch_);
  for (net::InboundDatagram& datagram : inbox_scratch_) {
    ++stats_.datagrams_in;
    if (online_) {
      deliver_datagram(datagram);
    } else {
      ++stats_.dropped_while_offline;
    }
    // The datagram's bytes are fully consumed within the delivery; hand
    // the buffer back so the transport's next drain can refill it.
    transport_.recycle(std::move(datagram.bytes));
  }

  timers_.advance(now);
}

void PeerRuntime::deliver_datagram(net::InboundDatagram& datagram) {
  // One path for every kind: a header probe names the frame and the node
  // takes the frame itself. Every decision below that reads a probed
  // field runs only once handle_frame has accepted the frame, whose full
  // decode read the same prefix; a duplicate push, which the node counts
  // from the probe alone, only bumps a counter here.
  const auto probe = gossip::probe_frame(datagram.bytes);
  if (!probe) {
    ++stats_.decode_errors;
    return;
  }
  const bool push = probe->kind == gossip::WireKind::kPush;
  // Probe-based duplicate classification gates the WAL append exactly as
  // it gates the full decode: ~80% of push deliveries are duplicates the
  // node already holds durably, and logging them would bloat the log
  // with bytes replay would classify as duplicates anyway. Read before
  // delivery, which marks the version known.
  const bool first_receipt = push && !node_.knows_version(probe->version);
  out_scratch_.clear();
  if (!node_.handle_frame(datagram.from, datagram.bytes, current_round(),
                          out_scratch_)) {
    ++stats_.decode_errors;
    return;
  }
  // This datagram may be the confirming signal a retry timer is waiting
  // for. The node never touches the retry table, so cancelling after
  // delivery changes nothing transmit sees.
  note_confirmation(datagram.from, *probe);
  if (first_receipt) {
    // Append-before-ack: the §6 ack sits in out_scratch_ and only goes
    // out (transmit below) once the frame is durably in the log — an
    // acked update can never be lost to a crash.
    append_durable(datagram.from, current_round(), datagram.bytes);
  } else if (push) {
    if (store_) ++stats_.wal_duplicates_skipped;
  } else if (probe->kind == gossip::WireKind::kPullResponse) {
    stats_.pull_response_bytes_in += datagram.bytes.size();
    // A pull response carrying values is new state exactly like a first
    // push; one that carries none changes nothing worth logging. It is
    // logged after it applies, as a first push is: the append may trigger
    // a snapshot, which must already hold the pulled values because it
    // covers (and truncates) this record. Pull responses are never acked,
    // so nothing waits on the append.
    if (probe->values > 0) {
      append_durable(datagram.from, current_round(), datagram.bytes);
    }
  }
  transmit(out_scratch_);
}

void PeerRuntime::append_durable(common::PeerId from, common::Round round,
                                 std::span<const std::byte> frame) {
  if (!store_) return;
  if (store_->append_frame(from, round, frame)) {
    ++stats_.wal_appends;
    (void)maybe_snapshot(false);
  } else {
    // Degrade to volatile, loudly countable — a full disk must not stop
    // the protocol (the paper's peers are unreliable in every other way
    // already).
    ++stats_.wal_append_failures;
  }
}

void PeerRuntime::append_local_versions(std::string_view key) {
  if (!store_) return;
  gossip::WireBytes frame;
  for (version::VersionedValue& value : node_.store().versions(key)) {
    // The synthesised frame is a push from ourselves with an empty
    // flooding list: replay feeds it to handle_frame(self, ...), where the
    // value applies and the emitted fan-out is discarded like any other
    // replay output.
    gossip::GossipPayload payload =
        gossip::PushMessage{std::move(value), {}, current_round()};
    gossip::encode_into(payload, frame);
    append_durable(node_.id(), current_round(), frame);
  }
}

bool PeerRuntime::maybe_snapshot(bool timer_fired) {
  if (!store_) return false;
  const bool due = timer_fired ? store_->stats().records_since_snapshot > 0
                               : store_->snapshot_due();
  if (!due) return false;
  std::string error;
  if (store_->write_snapshot(node_.view().membership(),
                             node_.store().all_versions(), &error)) {
    ++stats_.snapshots_written;
    return true;
  }
  ++stats_.snapshot_failures;
  return false;
}

bool PeerRuntime::snapshot_now() {
  if (!store_) return true;
  if (store_->stats().records_since_snapshot == 0) return true;
  return maybe_snapshot(true);
}

void PeerRuntime::arm_snapshot_timer() {
  if (!store_ || config_.store.snapshot_interval <= 0.0) return;
  snapshot_timer_ = timers_.schedule_after(
      config_.store.snapshot_interval, [this](common::SimTime /*at*/) {
        snapshot_timer_ = TimerQueue::kInvalidTimer;
        (void)maybe_snapshot(/*timer_fired=*/true);
        arm_snapshot_timer();
      });
}

void PeerRuntime::transmit(std::vector<gossip::OutboundMessage>& messages) {
  for (const gossip::OutboundMessage& message : messages) {
    gossip::encode_into(message.payload, frame_);
    // The message's frame as its retries share it; made by its first
    // target that arms a retry, so a message nobody waits on (acks,
    // forwards without acks, pull responses) is never copied.
    std::shared_ptr<const net::DatagramBytes> retained;
    for (const common::PeerId to : message.targets) {
      ++stats_.datagrams_out;
      transport_.send(to, frame_);
      const std::optional<RetryKey> retry =
          awaited_confirmation(to, message.payload);
      if (retry && config_.retry.max_attempts > 1) {
        if (retained) {
          ++stats_.frames_reused;
        } else {
          retained = std::make_shared<const net::DatagramBytes>(frame_);
        }
        arm_retry(*retry, retained);
      } else {
        ++stats_.frames_reused;
      }
    }
  }
  messages.clear();
}

std::optional<PeerRuntime::RetryKey> PeerRuntime::awaited_confirmation(
    common::PeerId to, const gossip::GossipPayload& payload) const {
  if (const auto* push = std::get_if<gossip::PushMessage>(&payload)) {
    // A push is only retried when acks are on — without §6 acks no
    // protocol message confirms receipt, and blind retransmission would
    // just multiply duplicates.
    if (!config_.gossip.acks.enabled) return std::nullopt;
    return RetryKey{
        .expect = Expect::kAck, .to = to, .version = push->value.id};
  }
  if (std::holds_alternative<gossip::PullRequest>(payload)) {
    return RetryKey{.expect = Expect::kPullResponse, .to = to};
  }
  if (const auto* query = std::get_if<gossip::QueryRequest>(&payload)) {
    return RetryKey{
        .expect = Expect::kQueryReply, .to = to, .nonce = query->nonce};
  }
  return std::nullopt;
}

void PeerRuntime::arm_retry(const RetryKey& key,
                            std::shared_ptr<const net::DatagramBytes> bytes) {
  const auto [it, fresh] = retries_.try_emplace(key);
  if (!fresh) release(it->second);
  it->second.bytes = std::move(bytes);
  it->second.attempt = 0;
  ++stats_.retries_armed;
  schedule_retry_timer(it);
}

void PeerRuntime::schedule_retry_timer(RetryTable::iterator entry) {
  PendingSend& pending = entry->second;
  UPDP2P_ENSURE(pending.timer == TimerQueue::kInvalidTimer,
                "retry entry already has a pending timer");
  const common::SimTime wait =
      config_.retry.delay(pending.attempt, jitter_rng_);
  pending.timer =
      timers_.schedule_after(wait, RetryFire{this, &entry->first});
}

void PeerRuntime::on_retry_timer(const RetryKey& key) {
  const auto it = retries_.find(key);
  UPDP2P_ENSURE(it != retries_.end() && &it->first == &key,
                "retry timer outlived its send");
  PendingSend& pending = it->second;
  pending.timer = TimerQueue::kInvalidTimer;  // it just fired
  const unsigned budget =
      key.expect == Expect::kAck
          ? std::min(config_.retry.max_attempts, kMaxPushTransmissions)
          : config_.retry.max_attempts;
  if (1 + pending.attempt >= budget) {
    ++stats_.retries_exhausted;
    erase_retry(it);
    return;
  }
  ++pending.attempt;
  ++stats_.retransmits;
  ++stats_.datagrams_out;
  // Retransmission is the encoded bytes the original send produced — the
  // tripwire below (asserted 0 by the loopback golden test) would count
  // any path that lost them and had to re-encode.
  if (!pending.bytes || pending.bytes->empty()) {
    ++stats_.retransmit_reencodes;
  } else {
    transport_.send(key.to, *pending.bytes);
  }
  schedule_retry_timer(it);
}

void PeerRuntime::note_confirmation(common::PeerId from,
                                    const gossip::FrameProbe& probe) {
  RetryKey key{.to = from};
  switch (probe.kind) {
    case gossip::WireKind::kAck:
      key.expect = Expect::kAck;
      key.version = probe.version;
      break;
    case gossip::WireKind::kPullResponse:
      key.expect = Expect::kPullResponse;
      break;
    case gossip::WireKind::kQueryReply:
      key.expect = Expect::kQueryReply;
      key.nonce = probe.nonce;
      break;
    default:
      return;
  }
  const auto it = retries_.find(key);
  if (it == retries_.end()) return;
  ++stats_.retries_cancelled;
  erase_retry(it);
}

void PeerRuntime::release(PendingSend& pending) {
  if (pending.timer != TimerQueue::kInvalidTimer) {
    const bool was_pending = timers_.cancel(pending.timer);
    UPDP2P_ENSURE(was_pending,
                  "retry entry names a timer the queue no longer holds");
    pending.timer = TimerQueue::kInvalidTimer;
  }
  pending.bytes.reset();
}

void PeerRuntime::erase_retry(RetryTable::iterator entry) {
  release(entry->second);
  retries_.erase(entry);
}

void PeerRuntime::arm_round_timer() {
  const common::SimTime deadline =
      static_cast<common::SimTime>(last_ticked_round_ + 1) *
      config_.round_duration;
  round_timer_ = timers_.schedule_at(
      deadline, [this](common::SimTime at) { on_round_timer(at); });
}

void PeerRuntime::on_round_timer(common::SimTime at) {
  round_timer_ = TimerQueue::kInvalidTimer;
  if (!online_) return;
  const common::Round target = round_of(at);
  while (last_ticked_round_ < target) {
    ++last_ticked_round_;
    ++stats_.rounds_ticked;
    out_scratch_.clear();
    node_.on_round_start(last_ticked_round_, out_scratch_);
    transmit(out_scratch_);
  }
  arm_round_timer();
}

void PeerRuntime::drop_all_retries() {
  while (!retries_.empty()) erase_retry(retries_.begin());
}

}  // namespace updp2p::runtime

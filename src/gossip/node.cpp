#include "gossip/node.hpp"

#include <algorithm>

#include "gossip/codec.hpp"
#include "gossip/partial_list.hpp"

namespace updp2p::gossip {

ReplicaNode::ReplicaNode(common::PeerId self, GossipConfig config,
                         common::StreamRng rng)
    : self_(self),
      config_(std::move(config)),
      rng_(rng),
      view_(self),
      writer_(self, rng.split_for(self.value())),
      forward_(config_) {
  config_.validate();
  view_.set_preferred_weight(config_.acks.preferred_weight);
}

void ReplicaNode::bootstrap(std::span<const common::PeerId> initial_view) {
  view_.merge(initial_view);
}

void ReplicaNode::bootstrap(const common::ChunkedPeerSet& initial_view) {
  view_.merge(initial_view);
}

void ReplicaNode::import_durable_state(
    const common::ChunkedPeerSet& membership,
    std::vector<version::VersionedValue> values) {
  view_.merge(membership);
  for (version::VersionedValue& value : values) {
    seen_versions_.emplace(value.id, 0u);
    (void)store_.apply(std::move(value));
  }
}

void ReplicaNode::seed_fixed_neighbors(
    std::span<const common::PeerId> neighbors) {
  fixed_neighbors_.assign(neighbors.begin(), neighbors.end());
  std::erase(fixed_neighbors_, self_);
  view_.merge(neighbors);
}

OutboundMessage ReplicaNode::wrap(common::PeerId to, GossipPayload payload) {
  const std::uint64_t size = encoded_size(payload);
  stats_.bytes_sent += size;
  return OutboundMessage{to, std::move(payload), size};
}

// --- push phase ---------------------------------------------------------------

std::vector<common::PeerId>& ReplicaNode::select_targets(std::size_t count,
                                                         common::Round now) {
  std::vector<common::PeerId>& targets = arena().targets;
  if (config_.target_selection == TargetSelection::kRandomPerPush) {
    view_.sample_into(rng_, count, targets, nullptr, now);
    return targets;
  }
  // Fixed-neighbor overlay: the target set is drawn once and reused for
  // every update (topology-dependent gossip à la [20]).
  if (fixed_neighbors_.empty()) {
    view_.sample_into(rng_, config_.absolute_fanout(), fixed_neighbors_,
                      nullptr, now);
  }
  const std::size_t take = std::min(count, fixed_neighbors_.size());
  targets.assign(fixed_neighbors_.begin(),
                 fixed_neighbors_.begin() +
                     static_cast<std::ptrdiff_t>(take));
  return targets;
}

void ReplicaNode::start_push(version::VersionedValue value, common::Round now,
                             std::vector<OutboundMessage>& out) {
  ++stats_.updates_originated;
  seen_versions_.emplace(value.id, 0);
  note_activity(now);

  // Round 0: the initiator selects f_r·R replicas (§4.2).
  const std::vector<common::PeerId>& targets =
      select_targets(config_.absolute_fanout(), now);
  if (targets.empty()) return;
  build_forward_list_into(config_.partial_list,
                          /*received=*/common::ChunkedPeerSet(), targets,
                          self_, rng_, arena().list);

  // One shared buffer serves the whole fan-out: each message copy is a
  // refcount bump, not an O(|R_f|) vector (or version-vector) copy; the
  // wire size is identical across the fan-out, so compute it once.
  const GossipPayload payload(
      PushMessage{SharedValue(std::move(value)), SharedPeerList(arena().list),
                  /*round=*/0});
  const std::uint64_t size = encoded_size(payload);
  out.reserve(out.size() + targets.size());
  for (const common::PeerId target : targets) {
    stats_.bytes_sent += size;
    out.push_back(OutboundMessage{target, payload, size});
    ++stats_.pushes_forwarded;
    if (config_.acks.enabled) pending_acks_[target] = PendingAck{now};
  }
}

std::vector<OutboundMessage> ReplicaNode::publish(std::string_view key,
                                                  std::string payload,
                                                  common::Round now) {
  version::VersionedValue value = writer_.write(
      store_, key, std::move(payload), static_cast<common::SimTime>(now));
  std::vector<OutboundMessage> out;
  start_push(std::move(value), now, out);
  return out;
}

std::vector<OutboundMessage> ReplicaNode::remove(std::string_view key,
                                                 common::Round now) {
  version::VersionedValue tombstone =
      writer_.erase(store_, key, static_cast<common::SimTime>(now));
  std::vector<OutboundMessage> out;
  start_push(std::move(tombstone), now, out);
  return out;
}

bool ReplicaNode::note_push_received(common::PeerId from,
                                     const version::VersionId& id) {
  ++stats_.pushes_received;
  view_.add(from);
  view_.clear_presumed_offline(from);  // it is evidently online

  auto [seen_it, first_receipt] = seen_versions_.emplace(id, 0u);
  if (!first_receipt) {
    ++seen_it->second;
    ++stats_.duplicate_pushes;
    forward_.observe_push(/*duplicate=*/true);
    return false;  // ProcessedUpdate(U,V) == TRUE: push at most once (§3)
  }
  forward_.observe_push(/*duplicate=*/false);
  return true;
}

void ReplicaNode::handle_push(common::PeerId from, const PushMessage& push,
                              common::Round now,
                              std::vector<OutboundMessage>& out) {
  if (!note_push_received(from, push.value->id)) return;
  handle_push_first(from, push.value, push.round, push.flooding_list.set(),
                    now, out);
}

void ReplicaNode::handle_push_first(common::PeerId from,
                                    const SharedValue& value,
                                    common::Round push_round,
                                    const common::ChunkedPeerSet& flooded,
                                    common::Round now,
                                    std::vector<OutboundMessage>& out) {
  // Name-dropper membership dissemination (§7.2) on FIRST receipt only.
  // §3's pseudocode ignores a push whose update was already processed, so
  // a duplicate's flooding list is dropped with the rest of the message —
  // which also means the dominant duplicate-delivery path never pays a
  // set merge (at 100k replicas ~80% of deliveries are duplicates), and
  // the frame path (handle_frame) never even *decodes* it.
  stats_.members_discovered += view_.merge(flooded);

  const version::ApplyOutcome outcome = store_.apply(*value);
  if (outcome == version::ApplyOutcome::kApplied ||
      outcome == version::ApplyOutcome::kCoexisting) {
    ++stats_.updates_learned_push;
  }
  note_activity(now);

  // §6 lazy pull: the first push after reconnect identifies a live, likely
  // up-to-date peer — reconcile with exactly that peer.
  if (lazy_waiting_) {
    lazy_waiting_ = false;
    make_pull(now, out, from);
  }

  // §6 acknowledgement to the first pusher(s). This is the first receipt
  // (duplicate count 0), so any positive ack_first_k acks it.
  if (config_.acks.enabled && config_.acks.ack_first_k > 0) {
    out.push_back(wrap(from, AckMessage{value->id}));
    ++stats_.acks_sent;
  }

  // Forward with probability PF(t+1); the hop counter in the message is the
  // round the sender pushed in, so we push in round push_round + 1.
  const common::Round next_round = push_round + 1;
  const double list_fraction =
      static_cast<double>(flooded.size()) /
      static_cast<double>(config_.estimated_total_replicas);
  if (!forward_.should_forward(rng_, next_round, list_fraction)) {
    ++stats_.forwards_suppressed;
    return;
  }

  // Select R_p (f_r·R random replicas; f_r itself shrinks under §6
  // self-tuning), then push to R_p \ R_f: peers already on the flooding
  // list are *dropped*, not re-drawn — that is what shrinks the message
  // count by the (1−l(t)) factor of §4.2.
  std::vector<common::PeerId>& targets = select_targets(
      forward_.effective_fanout(config_.absolute_fanout(), list_fraction),
      now);
  // R_p \ R_f by direct probes into the compressed list: ~fanout contains()
  // calls (O(1) on bitmap chunks) replace materialising R_f into an
  // O(|R_f|) scratch set per delivery.
  std::erase_if(targets, [&flooded, from](common::PeerId peer) {
    return peer == from || flooded.contains(peer);
  });
  if (targets.empty()) return;

  build_forward_list_into(config_.partial_list, flooded, targets, self_,
                          rng_, arena().list);
  // Forwarded value and list are shared across the fan-out; the wire size
  // is identical for every target, so compute it once.
  const GossipPayload payload(
      PushMessage{value, SharedPeerList(arena().list), next_round});
  const std::uint64_t size = encoded_size(payload);
  out.reserve(out.size() + targets.size());
  for (const common::PeerId target : targets) {
    stats_.bytes_sent += size;
    out.push_back(OutboundMessage{target, payload, size});
    ++stats_.pushes_forwarded;
    if (config_.acks.enabled) pending_acks_[target] = PendingAck{now};
  }
}

bool ReplicaNode::handle_frame(common::PeerId from,
                               std::span<const std::byte> frame,
                               common::Round now,
                               std::vector<OutboundMessage>& out) {
  const auto probe = probe_frame(frame);
  if (!probe) return false;
  if (probe->kind == WireKind::kPush) {
    if (seen_versions_.contains(probe->version)) {
      // Duplicate classified from the probe alone: the dominant delivery
      // path at scale (~80% of 100k-replica deliveries) never decodes the
      // version vector or the flooding list. Only monotone bookkeeping
      // happens here (see probe_frame's trust contract) — `from` comes
      // from the transport/envelope, not the unvalidated frame tail.
      (void)note_push_received(from, probe->version);
      return true;
    }
    // First receipt: validate before mutate. The full streaming decode
    // runs BEFORE any node state changes, so a frame with a plausible
    // header but a garbage tail is rejected without side effects. The
    // flooding list streams into the arena's warm recv_list — no
    // temporary set, no allocation once the chunk buffers are warm.
    common::ChunkedPeerSet& list = arena().recv_list;
    auto push = decode_push_into(frame, list);
    if (!push) return false;
    // contains() above said no and nothing ran in between, so this is
    // always the first-receipt branch.
    (void)note_push_received(from, push->value.id);
    handle_push_first(from, SharedValue(std::move(push->value)), push->round,
                      list, now, out);
    return true;
  }
  // Non-push kinds carry no skippable bulk — decode fully and dispatch.
  const auto payload = decode(frame);
  if (!payload) return false;
  handle_message(from, *payload, now, out);
  return true;
}

// --- pull phase ---------------------------------------------------------------

void ReplicaNode::make_pull(common::Round now,
                            std::vector<OutboundMessage>& out,
                            std::optional<common::PeerId> target) {
  std::vector<common::PeerId>& contacts = arena().contacts;
  if (target.has_value()) {
    contacts.clear();
    contacts.push_back(*target);
  } else {
    view_.sample_into(rng_, config_.pull.contacts_per_attempt, contacts,
                      nullptr, now);
  }
  const PullRequest request{store_.summary(), store_.stored_ids(),
                            store_.content_digest()};
  out.reserve(out.size() + contacts.size());
  for (const common::PeerId contact : contacts) {
    out.push_back(wrap(contact, request));
    ++stats_.pull_requests_sent;
  }
  last_pull_round_ = now;
}

void ReplicaNode::handle_pull_request(common::PeerId from,
                                      const PullRequest& request,
                                      common::Round now,
                                      std::vector<OutboundMessage>& out) {
  ++stats_.pull_requests_received;
  view_.add(from);
  view_.clear_presumed_offline(from);

  const bool am_confident = confident(now);
  // Matching content digests mean identical stores: answer with an empty
  // (16-byte) response instead of computing and shipping deltas.
  const bool in_sync = request.store_digest == store_.content_digest();
  out.push_back(wrap(
      from, PullResponse{in_sync ? std::vector<version::VersionedValue>{}
                                 : store_.missing_for(request.have),
                         store_.summary(), am_confident}));

  // §3: "receives a pull request, but [is] not sure to have the latest
  // update" — the pulled party itself enters the pull phase.
  if (!am_confident && now > last_pull_round_) {
    make_pull(now, out);
  }
}

void ReplicaNode::handle_pull_response(common::PeerId from,
                                       const PullResponse& response,
                                       common::Round now) {
  ++stats_.pull_responses_received;
  view_.add(from);

  for (const auto& value : response.missing) {
    const version::ApplyOutcome outcome = store_.apply(value);
    seen_versions_.emplace(value.id, 0u);
    if (outcome == version::ApplyOutcome::kApplied ||
        outcome == version::ApplyOutcome::kCoexisting) {
      ++stats_.updates_learned_pull;
    }
  }
  // Reconciled with a peer; if that peer was confident we are in sync.
  needs_sync_ = needs_sync_ && !response.confident;
  lazy_waiting_ = false;
  note_activity(now);
}

void ReplicaNode::handle_ack(common::PeerId from, const AckMessage& /*ack*/) {
  ++stats_.acks_received;
  pending_acks_.erase(from);
  view_.mark_preferred(from);
  view_.clear_presumed_offline(from);
}

// --- query phase (§4.4) --------------------------------------------------------

StartedQuery ReplicaNode::begin_query(std::string_view key, QueryRule rule,
                                      std::size_t replicas_to_ask,
                                      common::Round now) {
  StartedQuery started;
  started.nonce = next_query_nonce_++;
  PendingQuery pending;
  pending.key = std::string(key);
  pending.rule = rule;
  pending.started = now;
  // This node's own store always participates in the vote.
  pending.answers.push_back(
      QueryAnswer{self_, store_.read(key), confident(now)});

  view_.sample_into(rng_, replicas_to_ask, arena().targets, nullptr, now);
  const std::vector<common::PeerId>& targets = arena().targets;
  pending.asked = targets.size();
  started.messages.reserve(targets.size());
  for (const common::PeerId target : targets) {
    started.messages.push_back(
        wrap(target, QueryRequest{pending.key, started.nonce}));
  }
  ++stats_.queries_issued;
  pending_queries_.emplace(started.nonce, std::move(pending));
  return started;
}

QueryOutcome ReplicaNode::poll_query(std::uint64_t nonce, common::Round now) {
  QueryOutcome outcome;
  const auto it = pending_queries_.find(nonce);
  if (it == pending_queries_.end()) {
    outcome.complete = true;  // unknown or already consumed
    return outcome;
  }
  PendingQuery& pending = it->second;
  outcome.asked = pending.asked;
  outcome.replies = pending.answers.size() - 1;  // minus the local answer
  const bool all_in = outcome.replies >= pending.asked;
  const bool timed_out = now - pending.started >= kQueryTimeoutRounds;
  if (!all_in && !timed_out) return outcome;  // still collecting

  outcome.complete = true;
  outcome.value = resolve_query(pending.answers, pending.rule);
  pending_queries_.erase(it);
  return outcome;
}

void ReplicaNode::handle_query_request(common::PeerId from,
                                       const QueryRequest& request,
                                       common::Round now,
                                       std::vector<OutboundMessage>& out) {
  ++stats_.query_requests_received;
  view_.add(from);

  QueryReply reply;
  reply.key = request.key;
  reply.nonce = request.nonce;
  reply.versions = store_.versions(request.key);
  reply.confident = confident(now);
  out.push_back(wrap(from, std::move(reply)));

  // §6: a replica that cannot answer confidently "will itself have to
  // initiate a pull".
  if (!confident(now) && now > last_pull_round_) {
    make_pull(now, out);
  }
}

void ReplicaNode::handle_query_reply(common::PeerId from,
                                     const QueryReply& reply) {
  ++stats_.query_replies_received;
  const auto it = pending_queries_.find(reply.nonce);
  if (it == pending_queries_.end()) return;  // late reply; query resolved
  if (it->second.key != reply.key) return;   // stale/mismatched nonce reuse
  // Reduce the responder's maximal set to its deterministic winner — one
  // vote per replica, as the majority logic of §4.4 requires.
  it->second.answers.push_back(
      QueryAnswer{from, local_winner(reply.versions), reply.confident});
}

// --- event dispatch --------------------------------------------------------------

void ReplicaNode::handle_message(common::PeerId from,
                                 const GossipPayload& payload,
                                 common::Round now,
                                 std::vector<OutboundMessage>& out) {
  std::visit(
      [this, from, now, &out](const auto& message) {
        using T = std::decay_t<decltype(message)>;
        if constexpr (std::is_same_v<T, PushMessage>) {
          handle_push(from, message, now, out);
        } else if constexpr (std::is_same_v<T, PullRequest>) {
          handle_pull_request(from, message, now, out);
        } else if constexpr (std::is_same_v<T, PullResponse>) {
          handle_pull_response(from, message, now);
        } else if constexpr (std::is_same_v<T, AckMessage>) {
          handle_ack(from, message);
        } else if constexpr (std::is_same_v<T, QueryRequest>) {
          handle_query_request(from, message, now, out);
        } else {
          static_assert(std::is_same_v<T, QueryReply>);
          handle_query_reply(from, message);
        }
      },
      payload);
}

std::vector<OutboundMessage> ReplicaNode::handle_message(
    common::PeerId from, const GossipPayload& payload, common::Round now) {
  std::vector<OutboundMessage> out;
  handle_message(from, payload, now, out);
  return out;
}

void ReplicaNode::on_reconnect(common::Round now,
                               std::vector<OutboundMessage>& out) {
  needs_sync_ = true;
  note_activity(now);
  if (config_.pull.lazy) {
    lazy_waiting_ = true;  // wait for the first push, then pull from there
    return;
  }
  make_pull(now, out);
}

std::vector<OutboundMessage> ReplicaNode::on_reconnect(common::Round now) {
  std::vector<OutboundMessage> out;
  on_reconnect(now, out);
  return out;
}

void ReplicaNode::on_round_start(common::Round now,
                                 std::vector<OutboundMessage>& out) {
  // §6: push targets that never acked are presumed offline for a while.
  if (config_.acks.enabled && config_.acks.suppression_rounds > 0) {
    for (auto it = pending_acks_.begin(); it != pending_acks_.end();) {
      if (now >= it->second.pushed_at + kAckWaitRounds) {
        view_.mark_presumed_offline(it->first,
                                    now + config_.acks.suppression_rounds);
        it = pending_acks_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // §3: no update received within time T -> pull to resynchronise.
  const bool stale =
      now > last_activity_round_ &&
      now - last_activity_round_ > config_.pull.no_update_timeout;
  const bool pull_cooled_down =
      now > last_pull_round_ &&
      now - last_pull_round_ > config_.pull.no_update_timeout;
  if (stale && pull_cooled_down && !view_.empty()) {
    make_pull(now, out);
  }
}

std::vector<OutboundMessage> ReplicaNode::on_round_start(common::Round now) {
  std::vector<OutboundMessage> out;
  on_round_start(now, out);
  return out;
}

void ReplicaNode::on_disconnect(common::Round /*now*/) {
  // In-flight expectations die with the session.
  pending_acks_.clear();
  lazy_waiting_ = false;
}

bool ReplicaNode::confident(common::Round now) const {
  if (needs_sync_) return false;
  return now - last_activity_round_ <= config_.pull.no_update_timeout;
}

}  // namespace updp2p::gossip

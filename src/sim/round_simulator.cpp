#include "sim/round_simulator.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "common/ensure.hpp"
#include "gossip/codec.hpp"
#include "sim/sweep_pool.hpp"

namespace updp2p::sim {

namespace {
/// Stream-purpose tag for per-(recipient, round) loss draws. Node streams
/// use the default purpose 0, so loss draws can never alias protocol
/// draws. The round is folded into the purpose, giving every (recipient,
/// round) pair its own indexed stream — loss decisions depend only on the
/// canonical position of a message in its recipient's batch, not on which
/// thread processes it.
constexpr std::uint64_t kLossPurpose = 0x6c6f7373;  // "loss"
/// Stream-purpose tag of the sequential driver stream (bootstrap views,
/// churn, publisher picks). Below kLossPurpose, so no round's loss stream
/// can take its key, and nonzero, so it is never a node stream.
constexpr std::uint64_t kDriverPurpose = 0x64726976;  // "driv"

unsigned resolve_shard_count(unsigned shard_threads, std::size_t population) {
  unsigned count = shard_threads != 0
                       ? shard_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  if (population != 0 && count > population) {
    count = static_cast<unsigned>(population);
  }
  return std::max(1u, count);
}
}  // namespace

RoundSimulator::RoundSimulator(RoundSimConfig config,
                               std::unique_ptr<churn::ChurnModel> churn)
    : config_(std::move(config)),
      churn_(std::move(churn)),
      rng_(config_.seed, 0, kDriverPurpose),
      bus_(resolve_shard_count(config_.shard_threads, config_.population),
           config_.population),
      shard_count_(
          resolve_shard_count(config_.shard_threads, config_.population)),
      shards_(shard_count_) {
  UPDP2P_ENSURE(churn_ != nullptr, "a churn model is required");
  UPDP2P_ENSURE(churn_->population() == config_.population,
                "churn population must match simulator population");
  UPDP2P_ENSURE(config_.message_loss >= 0.0 && config_.message_loss <= 1.0,
                "loss probability must be in [0,1]");
  UPDP2P_ENSURE(config_.serialize_messages,
                "encoded frames are the simulator's only message path");

  nodes_.reserve(config_.population);
  for (std::uint32_t i = 0; i < config_.population; ++i) {
    const common::PeerId self(i);
    // Each node owns the counter-based stream (seed, node_id): its draw
    // sequence is a pure function of the messages it handles, independent
    // of how many draws any other node made.
    nodes_.emplace_back(self, config_.gossip,
                        common::StreamRng(config_.seed, i));
    nodes_.back().use_arena(&shards_[bus_.shard_of(self)].arena);
  }

  // Bootstrap membership: either the full replica set (analysis
  // assumption) or a random sample of the configured size. The full set is
  // built as ONE compressed ChunkedPeerSet; each node's view, holding only
  // its owner, adopts that set's bitmap chunks copy-on-write, so a node's
  // bootstrap is a reference-count bump per chunk, not a copy.
  if (config_.initial_view_size == 0 ||
      config_.initial_view_size >= config_.population) {
    common::ChunkedPeerSet everyone;
    for (std::uint32_t i = 0; i < config_.population; ++i) {
      everyone.insert(common::PeerId(i));
    }
    for (auto& node : nodes_) {
      node.bootstrap(everyone);
    }
  } else {
    std::vector<common::PeerId> sample;
    for (auto& node : nodes_) {
      sample.clear();
      sample.reserve(config_.initial_view_size);
      for (const std::uint32_t idx : rng_.sample_without_replacement(
               static_cast<std::uint32_t>(config_.population),
               static_cast<std::uint32_t>(config_.initial_view_size))) {
        sample.emplace_back(idx);
      }
      node.bootstrap(sample);
    }
  }

  churn_->reset(rng_);
  online_.resize(config_.population);
  send_seq_.assign(config_.population, 0);
  for (std::uint32_t i = 0; i < config_.population; ++i) {
    online_[i] = churn_->is_online(common::PeerId(i)) ? 1 : 0;
  }
}

void RoundSimulator::dispatch_from(std::size_t shard, common::PeerId from,
                                   std::vector<gossip::OutboundMessage>& out) {
  Shard& sh = shards_[shard];
  std::uint32_t& seq = send_seq_[from.value()];
  for (const gossip::OutboundMessage& message : out) {
    const std::uint64_t sends = message.targets.size();
    switch (message.payload.index()) {
      case gossip::kPushIndex: sh.push_messages += sends; break;
      case gossip::kPullRequestIndex:
      case gossip::kPullResponseIndex: sh.pull_messages += sends; break;
      case gossip::kAckIndex: sh.ack_messages += sends; break;
      default: sh.query_messages += sends; break;
    }
    gossip::WireBytes frame = gossip::encode(message.payload);
    sh.bytes += sends * frame.size();
    const std::uint32_t index = bus_.add_payload(shard, std::move(frame));
    for (const common::PeerId to : message.targets) {
      bus_.send_from_shard(shard, from, to, index, seq++);
    }
  }
  out.clear();
}

void RoundSimulator::dispatch(common::PeerId from,
                              std::vector<gossip::OutboundMessage>& out) {
  dispatch_from(bus_.shard_of(from), from, out);
}

// holds(shard): tracking starts from the sequential driver, between rounds
void RoundSimulator::start_tracking(const version::VersionId& id) {
  tracking_ = true;
  tracked_id_ = id;
  aware_.assign(config_.population, 0);
  aware_online_count_ = 0;
  for (std::uint32_t i = 0; i < config_.population; ++i) {
    if (nodes_[i].knows_version(id)) {
      aware_[i] = 1;
      if (churn_->is_online(common::PeerId(i))) ++aware_online_count_;
    }
  }
}

void RoundSimulator::note_awareness(std::uint32_t node_index, Shard& shard) {
  if (!tracking_ || aware_[node_index] != 0) return;
  if (!nodes_[node_index].knows_version(tracked_id_)) return;
  aware_[node_index] = 1;
  // A node only handles messages while online, so the new awareness always
  // counts toward the online-and-aware total (summed at the merge step).
  ++shard.new_aware;
}

std::size_t RoundSimulator::aware_online(const version::VersionId& id) const {
  if (tracking_ && id == tracked_id_) return aware_online_count_;
  std::size_t count = 0;
  for (std::uint32_t i = 0; i < config_.population; ++i) {
    const common::PeerId peer(i);
    if (churn_->is_online(peer) && nodes_[i].knows_version(id)) ++count;
  }
  return count;
}

double RoundSimulator::aware_fraction(const version::VersionId& id) const {
  const std::size_t online = churn_->online_count();
  return online == 0 ? 0.0
                     : static_cast<double>(aware_online(id)) /
                           static_cast<double>(online);
}

void RoundSimulator::step_shard(unsigned shard) {
  Shard& sh = shards_[shard];
  sh.reset_counters();

  // 1. Deliver this shard's slice of last round's messages, in canonical
  //    (to, from, seq) order.
  net::BusStats& bstats = bus_.shard_stats(shard);
  bstats.messages_to_offline +=
      bus_.collect_into(shard, sh.batch, [this](common::PeerId to) {
        return online_[to.value()] != 0;
      });
  const double loss = config_.message_loss;
  common::StreamRng loss_rng;
  std::uint32_t loss_recipient = std::numeric_limits<std::uint32_t>::max();
  for (const net::Envelope& envelope : sh.batch) {
    const std::uint32_t to = envelope.to.value();
    if (loss > 0.0) {
      if (to != loss_recipient) {
        loss_recipient = to;
        loss_rng =
            common::StreamRng(config_.seed, to, kLossPurpose + round_);
      }
      if (loss_rng.bernoulli(loss)) {
        ++bstats.messages_dropped;
        continue;
      }
    }
    ++bstats.messages_delivered;
    gossip::ReplicaNode& node = nodes_[to];
    const std::uint64_t duplicates_before = node.stats().duplicate_pushes;
    // The node probes the header, counts duplicates without decoding, and
    // stream-decodes first receipts, as a deployed peer does.
    UPDP2P_ENSURE(node.handle_frame(envelope.from, bus_.payload(envelope),
                                    round_, sh.reactions),
                  "own encoder output must always decode");
    sh.duplicates += node.stats().duplicate_pushes - duplicates_before;
    note_awareness(to, sh);
    dispatch_from(shard, envelope.to, sh.reactions);
  }

  // 2. Per-round timers for this shard's online nodes. Shards are
  //    contiguous blocks, so the slice is [begin, end).
  if (config_.round_timers) {
    const std::uint32_t population =
        static_cast<std::uint32_t>(config_.population);
    const auto block = static_cast<std::uint32_t>(
        (config_.population + shard_count_ - 1) / shard_count_);
    const std::uint32_t begin = std::min(shard * block, population);
    const std::uint32_t end = std::min(begin + block, population);
    for (std::uint32_t i = begin; i < end; ++i) {
      if (online_[i] == 0) continue;
      nodes_[i].on_round_start(round_, sh.reactions);
      dispatch_from(shard, common::PeerId(i), sh.reactions);
    }
  }
}

// holds(shard): phases 1-2 fan out via step_shard(shard); every statement
// in this body runs in the sequential gaps before/after the fan-out joins
void RoundSimulator::step_round(RunMetrics* metrics) {
  ++round_;

  // 1+2. Publish last round's sends, then deliver and run timers, one
  //      task per shard. Nested inside a SweepPool task (a sharded run in
  //      a seed sweep) this degrades to an inline sequential loop.
  bus_.begin_round();
  if (shard_count_ == 1) {
    step_shard(0);
  } else {
    SweepPool::shared().run(shard_count_, shard_count_,
                            [this](unsigned shard) { step_shard(shard); });
  }

  // 3. Merge the shard counters (sums — order-free) and record metrics
  //    for the state reached in this round.
  std::uint64_t push = 0, pull = 0, ack = 0, query = 0;
  std::uint64_t bytes = 0, duplicates = 0;
  for (Shard& sh : shards_) {
    push += sh.push_messages;
    pull += sh.pull_messages;
    ack += sh.ack_messages;
    query += sh.query_messages;
    bytes += sh.bytes;
    duplicates += sh.duplicates;
    aware_online_count_ += sh.new_aware;
    sh.new_aware = 0;
  }
  if (metrics != nullptr) {
    RoundMetrics rm;
    rm.round = round_;
    rm.online = churn_->online_count();
    rm.aware_online = tracking_ ? aware_online_count_ : 0;
    rm.push_messages = push;
    rm.pull_messages = pull;
    rm.ack_messages = ack;
    rm.query_messages = query;
    rm.messages = push + pull + ack + query;
    rm.duplicates = duplicates;
    rm.bytes = bytes;
    metrics->rounds.push_back(rm);
  }

  // 4. Churn transition into the next round; fire reconnect/disconnect
  //    hooks for peers whose state flipped. Sequential: the churn model
  //    and hook dispatch share the main rng_ stream.
  churn_->advance(rng_);
  for (std::uint32_t i = 0; i < config_.population; ++i) {
    const common::PeerId peer(i);
    const bool online = churn_->is_online(peer);
    if (online == (online_[i] != 0)) continue;
    online_[i] = online ? 1 : 0;
    if (tracking_ && aware_[i] != 0) {
      // Awareness is sticky; only the online side of "online ∧ aware"
      // changes with churn.
      if (online) {
        ++aware_online_count_;
      } else {
        --aware_online_count_;
      }
    }
    if (online) {
      if (config_.reconnect_pull) {
        nodes_[i].on_reconnect(round_ + 1, reactions_scratch_);
        dispatch(peer, reactions_scratch_);
      }
    } else {
      nodes_[i].on_disconnect(round_ + 1);
    }
  }
}

RunMetrics RoundSimulator::propagate_update(
    std::optional<common::PeerId> initiator, std::string key,
    std::string payload) {
  // Pick an online initiator when none given.
  common::PeerId publisher = initiator.value_or(common::PeerId::invalid());
  if (!initiator.has_value()) {
    const auto online_peers = churn_->online().online_peers();
    UPDP2P_ENSURE(!online_peers.empty(), "no online peer to publish from");
    publisher = online_peers[rng_.pick_index(online_peers.size())];
  }
  UPDP2P_ENSURE(churn_->is_online(publisher),
                "the initiator must be online to publish");

  RunMetrics metrics;
  metrics.population = config_.population;
  metrics.initial_online = churn_->online_count();

  // Round 0: publish.
  for (Shard& sh : shards_) sh.reset_counters();
  auto out =
      nodes_[publisher.value()].publish(key, std::move(payload), round_);
  const version::VersionedValue written =
      nodes_[publisher.value()].read(key).value();
  start_tracking(written.id);
  dispatch(publisher, out);

  RoundMetrics round0;
  round0.round = round_;
  round0.online = churn_->online_count();
  round0.aware_online = aware_online_count_;
  for (const Shard& sh : shards_) round0.push_messages += sh.push_messages;
  for (const Shard& sh : shards_) round0.bytes += sh.bytes;
  round0.messages = round0.push_messages;
  metrics.rounds.push_back(round0);

  // Subsequent rounds until quiescence.
  common::Round quiet = 0;
  for (common::Round t = 0; t < config_.max_rounds; ++t) {
    step_round(&metrics);
    const RoundMetrics& last = metrics.rounds.back();
    quiet = last.messages == 0 ? quiet + 1 : 0;
    if (quiet >= config_.quiescence_rounds) break;
  }
  return metrics;
}

void RoundSimulator::run_rounds(common::Round rounds) {
  for (common::Round t = 0; t < rounds; ++t) {
    step_round(nullptr);
  }
}

std::unique_ptr<RoundSimulator> make_push_phase_simulator(
    RoundSimConfig config, double initial_online_fraction, double sigma) {
  auto churn = std::make_unique<churn::BernoulliChurn>(
      config.population, initial_online_fraction, sigma, /*p_join=*/0.0);
  return std::make_unique<RoundSimulator>(std::move(config), std::move(churn));
}

}  // namespace updp2p::sim

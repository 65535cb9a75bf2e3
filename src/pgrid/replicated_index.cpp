#include "pgrid/replicated_index.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace updp2p::pgrid {

namespace {
/// Purpose key of the index's routing stream (search choices, respondent
/// shuffles); nodes hold the purpose-0 streams (seed, node_id).
constexpr std::uint64_t kRoutePurpose = 0x207E;
}  // namespace

ReplicatedIndex::ReplicatedIndex(ReplicatedIndexConfig config)
    : config_(std::move(config)),
      rng_(config_.seed, 0, kRoutePurpose),
      grid_(PGridNetwork::build(config_.grid)),
      bus_(1, grid_.peer_count()) {
  nodes_.reserve(grid_.peer_count());
  online_.assign(grid_.peer_count(), true);
  send_seq_.assign(grid_.peer_count(), 0);

  for (std::uint32_t i = 0; i < grid_.peer_count(); ++i) {
    const common::PeerId self(i);
    const PGridPeer& peer = grid_.peer(self);
    // Group-scoped gossip: the "total replicas" a node reasons about is its
    // replica group, not the whole network.
    gossip::GossipConfig node_config = config_.gossip;
    node_config.estimated_total_replicas = peer.replicas.size() + 1;
    nodes_.push_back(std::make_unique<gossip::ReplicaNode>(
        self, std::move(node_config), common::StreamRng(config_.seed, i)));
    // Single-threaded driver: one arena serves the whole population.
    nodes_.back()->use_arena(&arena_);
    nodes_.back()->bootstrap(peer.replicas);
  }
}

std::size_t ReplicatedIndex::online_count() const {
  return static_cast<std::size_t>(
      std::count(online_.begin(), online_.end(), true));
}

void ReplicatedIndex::dispatch(common::PeerId from,
                               std::vector<gossip::OutboundMessage> out) {
  std::uint32_t& seq = send_seq_[from.value()];
  for (auto& message : out) {
    bus_.send(from, message.to, std::move(message.payload),
              message.size_bytes, round_, seq++);
  }
}

void ReplicatedIndex::set_online(common::PeerId peer, bool online) {
  const auto idx = peer.value();
  if (online_[idx] == online) return;
  online_[idx] = online;
  if (online) {
    dispatch(peer, nodes_[idx]->on_reconnect(round_));
  } else {
    nodes_[idx]->on_disconnect(round_);
  }
}

void ReplicatedIndex::step_round() {
  ++round_;
  bus_.begin_round();
  bus_.collect_into(0, batch_);
  net::BusStats& stats = bus_.shard_stats(0);
  for (const auto& envelope : batch_) {
    if (!online_[envelope.to.value()]) {
      ++stats.messages_to_offline;
      continue;
    }
    ++stats.messages_delivered;
    dispatch(envelope.to,
             nodes_[envelope.to.value()]->handle_message(
                 envelope.from, envelope.payload, round_));
  }
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (!online_[i]) continue;
    dispatch(common::PeerId(i), nodes_[i]->on_round_start(round_));
  }
}

void ReplicatedIndex::drive(churn::ChurnModel& churn,
                            common::StreamRng& rng, unsigned rounds) {
  UPDP2P_ENSURE(churn.population() == nodes_.size(),
                "churn population must match index population");
  for (unsigned r = 0; r < rounds; ++r) {
    churn.advance(rng);
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      set_online(common::PeerId(i), churn.is_online(common::PeerId(i)));
    }
    step_round();
  }
}

RouteOutcome ReplicatedIndex::route(common::PeerId origin,
                                    const BitPath& key_path,
                                    unsigned retries) {
  UPDP2P_ENSURE(origin.value() < nodes_.size(), "origin out of range");
  RouteOutcome outcome;
  if (!online_[origin.value()]) return outcome;  // offline origins cannot act
  const auto probe = [this](common::PeerId peer) {
    return online_[peer.value()];
  };
  const SearchResult search =
      grid_.search_with_retries(origin, key_path, probe, rng_, retries);
  outcome.ok = search.found;
  outcome.responsible = search.responsible;
  outcome.hops = search.hops;
  outcome.attempts = search.attempts;
  return outcome;
}

RouteOutcome ReplicatedIndex::put(common::PeerId origin, std::string_view key,
                                  std::string payload,
                                  unsigned route_retries) {
  const auto key_path = BitPath::from_key(key, 64);
  RouteOutcome outcome = route(origin, key_path, route_retries);
  if (!outcome.ok) return outcome;
  auto& responsible = *nodes_[outcome.responsible.value()];
  dispatch(outcome.responsible,
           responsible.publish(key, std::move(payload), round_));
  return outcome;
}

RouteOutcome ReplicatedIndex::remove(common::PeerId origin,
                                     std::string_view key,
                                     unsigned route_retries) {
  const auto key_path = BitPath::from_key(key, 64);
  RouteOutcome outcome = route(origin, key_path, route_retries);
  if (!outcome.ok) return outcome;
  auto& responsible = *nodes_[outcome.responsible.value()];
  dispatch(outcome.responsible, responsible.remove(key, round_));
  return outcome;
}

std::optional<version::VersionedValue> ReplicatedIndex::get(
    common::PeerId origin, std::string_view key, gossip::QueryRule rule,
    std::size_t replicas_to_ask, unsigned route_retries) {
  const auto key_path = BitPath::from_key(key, 64);
  const RouteOutcome outcome = route(origin, key_path, route_retries);
  if (!outcome.ok) return std::nullopt;

  // Ask the found replica plus further online group members (§4.3: "it is
  // preferable to contact multiple peers and choose the most up to date").
  std::vector<common::PeerId> respondents{outcome.responsible};
  std::vector<common::PeerId> others = grid_.replica_group(key_path);
  rng_.shuffle(std::span<common::PeerId>(others));
  for (const common::PeerId peer : others) {
    if (respondents.size() >= replicas_to_ask) break;
    if (peer == outcome.responsible || !online_[peer.value()]) continue;
    respondents.push_back(peer);
  }

  std::vector<gossip::QueryAnswer> answers;
  answers.reserve(respondents.size());
  for (const common::PeerId peer : respondents) {
    const auto& node = *nodes_[peer.value()];
    answers.push_back(
        gossip::QueryAnswer{peer, node.read(key), node.confident(round_)});
  }
  return gossip::resolve_query(answers, rule);
}

double ReplicatedIndex::group_consistency(std::string_view key,
                                          const version::VersionId& id) const {
  const auto key_path = BitPath::from_key(key, 64);
  const auto& group = grid_.replica_group(key_path);
  if (group.empty()) return 0.0;
  std::size_t holding = 0;
  for (const common::PeerId peer : group) {
    const auto value = nodes_[peer.value()]->read(key);
    if (value.has_value() && value->id == id) ++holding;
  }
  return static_cast<double>(holding) / static_cast<double>(group.size());
}

}  // namespace updp2p::pgrid

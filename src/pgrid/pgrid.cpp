#include "pgrid/pgrid.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace updp2p::pgrid {

namespace {
/// Purpose key of the construction's stream under the grid seed.
constexpr std::uint64_t kBuildPurpose = 0x9B1D;
}  // namespace

PGridNetwork PGridNetwork::build(const PGridConfig& config) {
  UPDP2P_ENSURE(config.peers > 0, "network needs peers");
  UPDP2P_ENSURE(config.depth > 0 && config.depth <= 24,
                "depth must be in [1, 24]");
  UPDP2P_ENSURE((std::size_t{1} << config.depth) <= config.peers,
                "need at least one peer per partition");
  UPDP2P_ENSURE(config.refs_per_level > 0, "need routing references");

  PGridNetwork network;
  network.config_ = config;
  common::StreamRng rng(config.seed, 0, kBuildPurpose);

  // 1. Assign paths: shuffle peers, deal them round-robin over partitions
  //    so every partition gets an (almost) equal replica group.
  const std::size_t partition_count = std::size_t{1} << config.depth;
  std::vector<common::PeerId> order;
  order.reserve(config.peers);
  for (std::uint32_t i = 0; i < config.peers; ++i) order.emplace_back(i);
  rng.shuffle(std::span<common::PeerId>(order));

  std::vector<BitPath> partition_paths;
  partition_paths.reserve(partition_count);
  for (std::size_t p = 0; p < partition_count; ++p) {
    partition_paths.push_back(
        BitPath(static_cast<std::uint64_t>(p) << (64 - config.depth),
                config.depth));
  }

  network.peers_.resize(config.peers);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const BitPath path = partition_paths[i % partition_count];
    PGridPeer& peer = network.peers_[order[i].value()];
    peer.id = order[i];
    peer.path = path;
    network.partitions_[path].push_back(order[i]);
  }

  // 2. Replica lists: same-partition peers, excluding oneself.
  for (auto& peer : network.peers_) {
    for (const common::PeerId other : network.partitions_[peer.path]) {
      if (other != peer.id) peer.replicas.push_back(other);
    }
  }

  // 3. Routing tables: at level l, references into the sibling subtree of
  //    the peer's path prefix. Candidates are all peers whose path starts
  //    with that sibling prefix.
  std::unordered_map<BitPath, std::vector<common::PeerId>> by_prefix;
  for (const auto& peer : network.peers_) {
    for (std::uint8_t l = 1; l <= config.depth; ++l) {
      by_prefix[peer.path.prefix(l)].push_back(peer.id);
    }
  }
  for (auto& peer : network.peers_) {
    peer.routing.reserve(config.depth);
    for (std::uint8_t l = 0; l < config.depth; ++l) {
      RoutingLevel level;
      level.sibling_prefix = peer.path.sibling_at(l);
      const auto& candidates = by_prefix[level.sibling_prefix];
      UPDP2P_ENSURE(!candidates.empty(),
                    "balanced construction fills every subtree");
      const std::size_t take =
          std::min(config.refs_per_level, candidates.size());
      for (const std::uint32_t idx : rng.sample_without_replacement(
               static_cast<std::uint32_t>(candidates.size()),
               static_cast<std::uint32_t>(take))) {
        level.refs.push_back(candidates[idx]);
      }
      peer.routing.push_back(std::move(level));
    }
  }
  return network;
}

BitPath PGridNetwork::partition_of(const BitPath& key) const {
  UPDP2P_ENSURE(key.length() >= config_.depth,
                "key must be at least as deep as the trie");
  return key.prefix(config_.depth);
}

const std::vector<common::PeerId>& PGridNetwork::replica_group(
    const BitPath& key) const {
  return partitions_.at(partition_of(key));
}

SearchResult PGridNetwork::search(common::PeerId origin, const BitPath& key,
                                  const OnlineProbe& is_online,
                                  common::StreamRng& rng) const {
  SearchResult result;
  common::PeerId current = origin;
  // Each hop strictly increases the matched prefix, so depth bounds hops.
  for (std::uint8_t guard = 0; guard <= config_.depth; ++guard) {
    const PGridPeer& peer = peers_[current.value()];
    ++result.attempts;
    if (peer.path.is_prefix_of(key)) {
      result.found = true;
      result.responsible = current;
      return result;
    }
    // First level where this peer's path diverges from the key: forward to
    // a random online reference on the key's side of that split.
    const std::uint8_t level = peer.path.common_prefix_length(key);
    const auto& refs = peer.routing[level].refs;
    std::vector<common::PeerId> shuffled(refs.begin(), refs.end());
    rng.shuffle(std::span<common::PeerId>(shuffled));
    common::PeerId next = common::PeerId::invalid();
    for (const common::PeerId candidate : shuffled) {
      ++result.attempts;
      if (is_online(candidate)) {
        next = candidate;
        break;
      }
    }
    if (!next.is_valid()) return result;  // dead end: all refs offline
    ++result.hops;
    current = next;
  }
  return result;
}

SearchResult PGridNetwork::search_with_retries(common::PeerId origin,
                                               const BitPath& key,
                                               const OnlineProbe& is_online,
                                               common::StreamRng& rng,
                                               unsigned max_tries) const {
  SearchResult total;
  for (unsigned i = 0; i < max_tries; ++i) {
    SearchResult attempt = search(origin, key, is_online, rng);
    total.hops += attempt.hops;
    total.attempts += attempt.attempts;
    if (attempt.found) {
      total.found = true;
      total.responsible = attempt.responsible;
      return total;
    }
  }
  return total;
}

}  // namespace updp2p::pgrid

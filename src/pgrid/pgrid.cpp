#include "pgrid/pgrid.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace updp2p::pgrid {

namespace {
/// Purpose keys of the two constructions' streams under the grid seed.
constexpr std::uint64_t kBuildPurpose = 0x9B1D;
constexpr std::uint64_t kExchangePurpose = 0xE8C4;
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
  static const std::vector<common::PeerId> kEmpty;
  const auto it = partitions_.find(partition_of(key));
  return it == partitions_.end() ? kEmpty : it->second;
}

// --- self-organizing construction (Aberer, CoopIS 2001) ----------------------

namespace {

void add_ref(RoutingLevel& level, common::PeerId peer, std::size_t cap,
             common::StreamRng& rng) {
  if (std::find(level.refs.begin(), level.refs.end(), peer) !=
      level.refs.end()) {
    return;
  }
  if (level.refs.size() < cap) {
    level.refs.push_back(peer);
  } else {
    // Reservoir-style replacement keeps the table fresh without growth.
    level.refs[rng.pick_index(level.refs.size())] = peer;
  }
}

void add_replica(PGridPeer& peer, common::PeerId other) {
  if (other != peer.id && std::find(peer.replicas.begin(),
                                    peer.replicas.end(),
                                    other) == peer.replicas.end()) {
    peer.replicas.push_back(other);
  }
}

/// One pairwise exchange between peers a and b.
void meet(PGridPeer& a, PGridPeer& b, std::uint8_t depth, std::size_t cap,
          common::StreamRng& rng) {
  const std::uint8_t l = a.path.common_prefix_length(b.path);
  const bool a_exhausted = l == a.path.length();
  const bool b_exhausted = l == b.path.length();

  if (a_exhausted && b_exhausted) {
    if (l < depth) {
      // Identical paths, room to grow: split the partition — the defining
      // P-Grid move. Each side keeps the other as its sibling reference.
      a.path = a.path.appended(false);
      b.path = b.path.appended(true);
      a.routing.push_back(RoutingLevel{a.path.sibling_at(l), {b.id}});
      b.routing.push_back(RoutingLevel{b.path.sibling_at(l), {a.id}});
    } else {
      // Same full-depth path: they are replicas; union their knowledge.
      add_replica(a, b.id);
      add_replica(b, a.id);
      for (const common::PeerId peer : b.replicas) add_replica(a, peer);
      for (const common::PeerId peer : a.replicas) add_replica(b, peer);
    }
    return;
  }

  if (a_exhausted != b_exhausted) {
    // One path is a strict prefix of the other: the shorter peer
    // specialises into the complement of the longer peer's next bit,
    // keeping the longer peer as its first reference across that split.
    PGridPeer& shorter = a_exhausted ? a : b;
    PGridPeer& longer = a_exhausted ? b : a;
    const bool longer_bit = longer.path.bit(l);
    shorter.path = shorter.path.appended(!longer_bit);
    shorter.routing.push_back(
        RoutingLevel{shorter.path.sibling_at(l), {longer.id}});
    if (longer.routing.size() > l) {
      add_ref(longer.routing[l], shorter.id, cap, rng);
    }
    return;
  }

  // Paths diverge at level l: each is a valid level-l reference for the
  // other; additionally gossip same-side contacts (replicas qualify).
  add_ref(a.routing[l], b.id, cap, rng);
  add_ref(b.routing[l], a.id, cap, rng);
  for (const common::PeerId peer : b.replicas) {
    add_ref(a.routing[l], peer, cap, rng);
  }
  for (const common::PeerId peer : a.replicas) {
    add_ref(b.routing[l], peer, cap, rng);
  }
}

}  // namespace

PGridNetwork PGridNetwork::build_by_exchanges(const PGridConfig& config,
                                              std::size_t meetings) {
  UPDP2P_ENSURE(config.peers >= 2, "need at least two peers to exchange");
  UPDP2P_ENSURE(config.depth > 0 && config.depth <= 24,
                "depth must be in [1, 24]");
  UPDP2P_ENSURE((std::size_t{1} << config.depth) <= config.peers,
                "need at least one peer per partition");

  PGridNetwork network;
  network.config_ = config;
  common::StreamRng rng(config.seed, 0, kExchangePurpose);

  network.peers_.resize(config.peers);
  for (std::uint32_t i = 0; i < config.peers; ++i) {
    network.peers_[i].id = common::PeerId(i);
  }

  if (meetings == 0) {
    // Enough random meetings for every peer to specialise to full depth
    // and collect references whp.
    meetings = config.peers * static_cast<std::size_t>(config.depth) * 40;
  }
  for (std::size_t m = 0; m < meetings; ++m) {
    const auto i = rng.pick_index(config.peers);
    auto j = rng.pick_index(config.peers);
    while (j == i) j = rng.pick_index(config.peers);
    meet(network.peers_[i], network.peers_[j], config.depth,
         config.refs_per_level, rng);
  }

  // Stragglers that never found a split partner extend randomly (in a real
  // deployment they would keep meeting peers; we bound the build time).
  for (auto& peer : network.peers_) {
    while (peer.path.length() < config.depth) {
      const std::uint8_t l = peer.path.length();
      peer.path = peer.path.appended(rng.bernoulli(0.5));
      peer.routing.push_back(RoutingLevel{peer.path.sibling_at(l), {}});
    }
  }

  // Partition map from the organically formed paths.
  for (const auto& peer : network.peers_) {
    network.partitions_[peer.path].push_back(peer.id);
  }

  // Repair pass — the §2 escape hatch ("if not enough replicas are known
  // they can be efficiently obtained by randomized search"): fill empty
  // routing levels and replica lists from the settled structure.
  std::unordered_map<BitPath, std::vector<common::PeerId>> by_prefix;
  for (const auto& peer : network.peers_) {
    for (std::uint8_t l = 1; l <= config.depth; ++l) {
      by_prefix[peer.path.prefix(l)].push_back(peer.id);
    }
  }
  for (auto& peer : network.peers_) {
    for (std::uint8_t l = 0; l < config.depth; ++l) {
      auto& level = peer.routing[l];
      if (!level.refs.empty()) continue;
      const auto it = by_prefix.find(level.sibling_prefix);
      if (it == by_prefix.end()) continue;  // genuinely empty subtree
      const auto& candidates = it->second;
      const std::size_t take =
          std::min(config.refs_per_level, candidates.size());
      for (const std::uint32_t idx : rng.sample_without_replacement(
               static_cast<std::uint32_t>(candidates.size()),
               static_cast<std::uint32_t>(take))) {
        level.refs.push_back(candidates[idx]);
      }
    }
    if (peer.replicas.empty()) {
      for (const common::PeerId other : network.partitions_[peer.path]) {
        add_replica(peer, other);
      }
    }
  }
  return network;
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

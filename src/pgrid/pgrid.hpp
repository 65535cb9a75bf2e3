// A self-contained P-Grid substrate (Aberer et al. [1, 3]).
//
// P-Grid is the distributed index the paper's update algorithm was designed
// for: a binary trie over the key space where each peer is responsible for
// one path (partition) and keeps, per trie level, references to peers on
// the *other* side of that level's split. Peers sharing a path form the
// replica group that the hybrid push/pull scheme keeps quasi-consistent.
//
// This implementation provides:
//   * balanced network construction for a configurable trie depth,
//   * prefix routing with randomised reference choice and retries over
//     offline peers (searches have probabilistic success, paper §2),
//   * replica-group lookup, which plugs directly into gossip::ReplicaNode.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "pgrid/bit_path.hpp"

namespace updp2p::pgrid {

/// One level of a peer's routing table: peers responsible for the sibling
/// subtree at this level.
struct RoutingLevel {
  BitPath sibling_prefix;
  std::vector<common::PeerId> refs;
};

/// A peer's position in the trie plus its local knowledge.
struct PGridPeer {
  common::PeerId id;
  BitPath path;
  std::vector<RoutingLevel> routing;       ///< one entry per path bit
  std::vector<common::PeerId> replicas;    ///< same-path peers (excl. self)
};

struct PGridConfig {
  std::size_t peers = 1'024;
  /// Trie depth; 2^depth partitions, peers/2^depth replicas per partition.
  std::uint8_t depth = 4;
  /// Routing references kept per level (more refs = more routing
  /// redundancy under churn).
  std::size_t refs_per_level = 5;
  std::uint64_t seed = 0x9215;
};

struct SearchResult {
  bool found = false;
  common::PeerId responsible = common::PeerId::invalid();
  unsigned hops = 0;      ///< routing forwards taken
  unsigned attempts = 0;  ///< peers probed (incl. offline ones skipped)
};

class PGridNetwork {
 public:
  using OnlineProbe = std::function<bool(common::PeerId)>;

  /// Builds a balanced network: peers are distributed round-robin over the
  /// 2^depth partitions, then routing tables are filled with random
  /// references into each sibling subtree.
  [[nodiscard]] static PGridNetwork build(const PGridConfig& config);

  /// Builds the network the way P-Grid actually bootstraps (Aberer, CoopIS
  /// 2001): peers start with the empty path and repeatedly meet random
  /// partners — two peers with the same path *split* (extend their paths
  /// with complementary bits and remember each other as the sibling
  /// reference); peers with diverging paths exchange routing references at
  /// their divergence level. Decentralised and randomized, it converges to
  /// the same trie `build()` constructs directly. `meetings` bounds the
  /// number of random pairwise exchanges (0 = a generous default).
  [[nodiscard]] static PGridNetwork build_by_exchanges(
      const PGridConfig& config, std::size_t meetings = 0);

  /// Routes a query for `key` from `origin` to a responsible peer. At each
  /// hop the current peer picks random references for the first level where
  /// its own path diverges from the key, skipping offline ones; the search
  /// fails when every candidate reference of some hop is offline.
  [[nodiscard]] SearchResult search(common::PeerId origin, const BitPath& key,
                                    const OnlineProbe& is_online,
                                    common::StreamRng& rng) const;

  /// Repeats `search` up to `max_tries` times (fresh random routing
  /// choices); models the serial-attempt analysis of paper §2.
  [[nodiscard]] SearchResult search_with_retries(common::PeerId origin,
                                                 const BitPath& key,
                                                 const OnlineProbe& is_online,
                                                 common::StreamRng& rng,
                                                 unsigned max_tries) const;

  [[nodiscard]] const PGridPeer& peer(common::PeerId id) const {
    return peers_.at(id.value());
  }
  [[nodiscard]] std::size_t peer_count() const noexcept {
    return peers_.size();
  }
  [[nodiscard]] std::uint8_t depth() const noexcept { return config_.depth; }

  /// All peers responsible for the partition containing `key` (empty if —
  /// only possible for exchange-built networks — no peer settled there).
  [[nodiscard]] const std::vector<common::PeerId>& replica_group(
      const BitPath& key) const;

  /// The partition (full-depth path) that `key` belongs to.
  [[nodiscard]] BitPath partition_of(const BitPath& key) const;

 private:
  PGridNetwork() = default;

  PGridConfig config_;
  std::vector<PGridPeer> peers_;
  std::unordered_map<BitPath, std::vector<common::PeerId>> partitions_;
};

}  // namespace updp2p::pgrid

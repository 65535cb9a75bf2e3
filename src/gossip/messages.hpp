// Protocol messages of the hybrid push/pull scheme.
//
// Push(U, V, R_f, t) carries the updated item with its version, the partial
// flooding list R_f and the push-round counter t (paper §3 pseudocode).
// Pull is a summary exchange: the puller sends its version-vector summary,
// the pulled party answers with every version the summary does not cover
// (§3: "Inquire for missed updates based on version vectors").
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/chunked_peer_set.hpp"
#include "common/types.hpp"
#include "gossip/config.hpp"
#include "version/store.hpp"
#include "version/version_vector.hpp"

namespace updp2p::gossip {

/// One push, sent as one message to every target of its fan-out, so the
/// value and the list are held once however many peers receive them.
///
/// The flooding list is a compressed common::ChunkedPeerSet: a *set*
/// ordered by peer id, not an insertion-ordered sequence. That matches the
/// protocol — R_f membership is what matters (§4.2 drops duplicates and
/// probes "am I on the list?") — and it is what shrinks both resident
/// memory and bytes on the wire at scale.
struct PushMessage {
  version::VersionedValue value;         ///< (U, V)
  common::ChunkedPeerSet flooding_list;  ///< R_f
  common::Round round = 0;               ///< t
};

struct PullRequest {
  version::VersionVector summary;  ///< everything the puller has seen
  /// Ids of the versions the puller currently stores. Required for precise
  /// reconciliation: summary coverage alone misses concurrent siblings the
  /// puller never stored (see VersionedStore::missing_for).
  std::vector<version::VersionId> have;
  /// Order-insensitive digest of `have`; matching digests short-circuit
  /// the exchange (the common already-in-sync case).
  common::Digest128 store_digest{};
};

struct PullResponse {
  std::vector<version::VersionedValue> missing;  ///< delta for the puller
  version::VersionVector summary;                ///< responder's own summary
  bool confident = true;  ///< responder believes it is in sync (§3)
};

struct AckMessage {
  version::VersionId acked;  ///< version whose push is acknowledged (§6)
};

/// §4.4 query servicing: ask a replica for its versions of one key.
struct QueryRequest {
  std::string key;
  std::uint64_t nonce = 0;  ///< correlates replies with the issuing query
};

struct QueryReply {
  std::string key;
  std::uint64_t nonce = 0;
  /// The responder's causally-maximal versions (empty: key unknown).
  std::vector<version::VersionedValue> versions;
  bool confident = true;  ///< responder believes it is in sync (§3)
};

using GossipPayload = std::variant<PushMessage, PullRequest, PullResponse,
                                   AckMessage, QueryRequest, QueryReply>;

/// Variant indices (stable; used by simulators to classify traffic).
inline constexpr std::size_t kPushIndex = 0;
inline constexpr std::size_t kPullRequestIndex = 1;
inline constexpr std::size_t kPullResponseIndex = 2;
inline constexpr std::size_t kAckIndex = 3;
inline constexpr std::size_t kQueryRequestIndex = 4;
inline constexpr std::size_t kQueryReplyIndex = 5;

/// A message the protocol wants transmitted: one payload for every peer in
/// `targets`, which is never empty. A fan-out — a push to R_p \ R_f, a
/// pull request to several contacts, a query to several replicas — is one
/// message, so its host (a round engine or PeerRuntime) encodes it once
/// and sends that frame to each target in order.
struct OutboundMessage {
  std::vector<common::PeerId> targets;
  GossipPayload payload;
};

/// Human-readable payload kind (diagnostics and tests).
[[nodiscard]] const char* payload_kind(const GossipPayload& payload) noexcept;

}  // namespace updp2p::gossip

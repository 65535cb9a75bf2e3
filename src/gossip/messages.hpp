// Protocol messages of the hybrid push/pull scheme.
//
// Push(U, V, R_f, t) carries the updated item with its version, the partial
// flooding list R_f and the push-round counter t (paper §3 pseudocode).
// Pull is a summary exchange: the puller sends its version-vector summary,
// the pulled party answers with every version the summary does not cover
// (§3: "Inquire for missed updates based on version vectors").
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "common/chunked_peer_set.hpp"
#include "common/types.hpp"
#include "gossip/config.hpp"
#include "version/store.hpp"
#include "version/version_vector.hpp"

namespace updp2p::gossip {

/// Flooding list R_f shared across one forward's fan-out.
///
/// A forward sends the *same* list to ~f_r·R targets; carrying it by value
/// made every extra message an O(|R_f|) copy plus an allocation — the
/// dominant allocator traffic of a large push phase. The entries are
/// immutable once the message is built, so the copies can share one
/// object: copying a SharedPeerList is a reference-count bump. Mutating
/// accessors (used while *building* a list, e.g. codec decode and tests)
/// copy on write, preserving value semantics.
///
/// The underlying representation is a compressed common::ChunkedPeerSet:
/// a *set* ordered by peer id, not an insertion-ordered sequence. That
/// matches the protocol — R_f membership is what matters (§4.2 drops
/// duplicates and probes "am I on the list?") — and it is what shrinks
/// both resident memory and bytes on the wire at scale.
class SharedPeerList {
 public:
  SharedPeerList() = default;
  SharedPeerList(const common::ChunkedPeerSet& set)  // NOLINT(google-explicit-constructor)
      : data_(set.empty()
                  ? nullptr
                  : std::make_shared<const common::ChunkedPeerSet>(set)) {}
  SharedPeerList(common::ChunkedPeerSet&& set)  // NOLINT(google-explicit-constructor)
      : data_(set.empty() ? nullptr
                          : std::make_shared<const common::ChunkedPeerSet>(
                                std::move(set))) {}
  SharedPeerList(std::initializer_list<common::PeerId> entries)
      : SharedPeerList(common::ChunkedPeerSet(entries)) {}

  [[nodiscard]] std::size_t size() const noexcept {
    return data_ ? data_->size() : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] bool contains(common::PeerId peer) const noexcept {
    return data_ && data_->contains(peer);
  }
  /// The underlying set (an empty set when default-constructed).
  [[nodiscard]] const common::ChunkedPeerSet& set() const noexcept {
    return data_ ? *data_ : empty_set();
  }
  /// Visits entries in ascending peer-id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (data_) data_->for_each(std::forward<Fn>(fn));
  }

  /// Stable identity of the shared representation (nullptr when default-
  /// constructed). Equal identities imply equal contents — the round
  /// simulator uses this to recognise one fan-out's shared list across its
  /// N messages without comparing sets, and stores and encodes it once.
  [[nodiscard]] const void* identity() const noexcept { return data_.get(); }

  /// Copy-on-write insert (list construction in decode paths and tests).
  void insert(common::PeerId peer) {
    auto next = data_ ? std::make_shared<common::ChunkedPeerSet>(*data_)
                      : std::make_shared<common::ChunkedPeerSet>();
    next->insert(peer);
    data_ = std::move(next);
  }

  friend bool operator==(const SharedPeerList& a, const SharedPeerList& b) {
    return a.data_ == b.data_ || a.set() == b.set();
  }

 private:
  [[nodiscard]] static const common::ChunkedPeerSet& empty_set() noexcept;

  std::shared_ptr<const common::ChunkedPeerSet> data_;
};

/// The versioned value (U, V) shared across one forward's fan-out.
///
/// Same motivation as SharedPeerList: every fan-out target receives the
/// identical value, and a VersionedValue copy is expensive (payload string
/// plus a std::map-backed version vector). The value is immutable once a
/// push is built, so the copies can share one object; copying a
/// SharedValue is a reference-count bump. Value semantics are preserved:
/// comparison is deep, and a default-constructed SharedValue reads as an
/// empty VersionedValue.
class SharedValue {
 public:
  SharedValue() = default;
  SharedValue(version::VersionedValue value)  // NOLINT(google-explicit-constructor)
      : data_(std::make_shared<const version::VersionedValue>(
            std::move(value))) {}

  [[nodiscard]] const version::VersionedValue& get() const noexcept {
    return data_ ? *data_ : empty_value();
  }
  [[nodiscard]] const version::VersionedValue& operator*() const noexcept {
    return get();
  }
  [[nodiscard]] const version::VersionedValue* operator->() const noexcept {
    return &get();
  }

  /// Stable identity of the shared representation (nullptr when default-
  /// constructed); equal identities imply equal contents. See
  /// SharedPeerList::identity().
  [[nodiscard]] const void* identity() const noexcept { return data_.get(); }

  friend bool operator==(const SharedValue& a, const SharedValue& b) {
    return a.data_ == b.data_ || a.get() == b.get();
  }

 private:
  [[nodiscard]] static const version::VersionedValue& empty_value() noexcept;

  std::shared_ptr<const version::VersionedValue> data_;
};

struct PushMessage {
  SharedValue value;             ///< (U, V) (shared across the fan-out)
  SharedPeerList flooding_list;  ///< R_f (shared across the fan-out)
  common::Round round = 0;       ///< t
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

/// A message the protocol wants transmitted. Its host (a round engine or
/// PeerRuntime) encodes it, once per fan-out run, and charges the frame's
/// length.
struct OutboundMessage {
  common::PeerId to;
  GossipPayload payload;
};

/// What the pushes of one fan-out run share: one value object, one
/// flooding-list object and the round. Equal identities imply equal
/// contents, hence one encoded frame for the whole run, as long as the
/// run's first payload lives (no address is reused meanwhile). A null
/// value, as every non-push message has, never continues a run. Both
/// frame senders — RoundSimulator::dispatch_from and PeerRuntime::transmit
/// — encode a run once by this definition.
struct FanOutKey {
  const void* value = nullptr;
  const void* list = nullptr;
  common::Round round = 0;
  bool operator==(const FanOutKey&) const = default;

  /// True when a message with this key shares the frame of the run `open`.
  [[nodiscard]] bool continues(const FanOutKey& open) const noexcept {
    return value != nullptr && *this == open;
  }
};

/// Inline because both senders call it once per outbound message.
[[nodiscard]] inline FanOutKey fan_out_key(
    const GossipPayload& payload) noexcept {
  const auto* push = std::get_if<PushMessage>(&payload);
  if (push == nullptr) return {};
  return {push->value.identity(), push->flooding_list.identity(), push->round};
}

/// Human-readable payload kind (diagnostics and tests).
[[nodiscard]] const char* payload_kind(const GossipPayload& payload) noexcept;

}  // namespace updp2p::gossip

// Multi-version replica store with tombstones and anti-entropy deltas.
//
// Paper §3: update conflicts are rare and conflicting writes "may be treated
// as distinct and coexist as different versions"; deletions "may use
// conventional tombstones and death certificates". The store keeps, per key,
// the set of causally-maximal versions, supports dominance-based apply, and
// produces the delta a remote peer is missing given its summary vector —
// which is exactly what the pull phase exchanges.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "version/version_id.hpp"
#include "version/version_vector.hpp"

namespace updp2p::version {

/// One immutable version of one data item.
struct VersionedValue {
  std::string key;
  std::string payload;       ///< application data; ignored for tombstones
  VersionId id;              ///< universally unique version identifier
  VersionVector history;     ///< causal history up to and including this write
  bool tombstone = false;    ///< death certificate for a deletion
  common::SimTime written_at = 0.0;  ///< for tombstone retention

  friend bool operator==(const VersionedValue&, const VersionedValue&) = default;
};

/// Outcome of applying a received version (value semantics, no exceptions —
/// all four outcomes are normal protocol events).
enum class ApplyOutcome {
  kApplied,     ///< stored; replaced every version it dominates
  kDuplicate,   ///< byte-identical version already present
  kObsolete,    ///< dominated by (or equal history to) an existing version
  kCoexisting,  ///< concurrent with existing versions; all retained
};

[[nodiscard]] const char* to_string(ApplyOutcome o) noexcept;

class VersionedStore {
 public:
  /// Applies a version received from the network (push or pull).
  ApplyOutcome apply(VersionedValue value);

  /// All causally-maximal live + tombstone versions of `key`
  /// (empty vector if unknown).
  [[nodiscard]] std::vector<VersionedValue> versions(std::string_view key) const;

  /// Deterministic winner among the maximal versions of `key` — the version
  /// with the largest total event count, ties broken by VersionId. This is
  /// the "version scheme for identifying latest updates" of §4.4. Returns
  /// nullopt for unknown keys and for keys whose winner is a tombstone.
  [[nodiscard]] std::optional<VersionedValue> read(std::string_view key) const;

  /// True iff the key exists and its winning version is a tombstone.
  [[nodiscard]] bool is_deleted(std::string_view key) const;

  /// Merge of the histories of every stored version: "everything this
  /// replica has seen". Exchanged first in the pull phase.
  [[nodiscard]] const VersionVector& summary() const noexcept { return summary_; }

  /// Versions whose history is not covered by `remote_summary` — i.e. what
  /// a peer summarising as `remote_summary` is missing from this store.
  ///
  /// CAUTION: summary coverage alone has a blind spot — a version that is
  /// *covered* by the remote summary but was never *stored* remotely (a
  /// concurrent sibling the remote only saw reflected in merged histories)
  /// is skipped, and two replicas can disagree forever while their
  /// summaries are equal. Reconciliation should use the `have` overload.
  [[nodiscard]] std::vector<VersionedValue> missing_given(
      const VersionVector& remote_summary) const;

  /// Precise delta: every version whose id is not in `remote_have` (the
  /// ids the remote currently stores). Shipping is safe-by-apply — the
  /// receiver's dominance check discards anything obsolete and keeps
  /// concurrents — which closes the blind spot above. (The cross-key
  /// summary cannot be used to trim this list soundly: it may be inflated
  /// by other keys' histories.)
  [[nodiscard]] std::vector<VersionedValue> missing_for(
      std::span<const VersionId> remote_have) const;

  /// Ids of every stored version (live and tombstoned), for the pull
  /// request's `have` list.
  [[nodiscard]] std::vector<VersionId> stored_ids() const;

  /// Every stored version (live and tombstoned), key-ordered. This is the
  /// store's full durable state: re-applying the list to an empty store
  /// reproduces items, summary and content digest exactly (the maximal
  /// versions' merged histories ARE the summary). Snapshot export.
  [[nodiscard]] std::vector<VersionedValue> all_versions() const;

  /// Order-insensitive digest of the stored version-id set. Two stores with
  /// equal digests hold the same versions (up to the digest's collision
  /// probability), so reconciliation can short-circuit: the common
  /// in-sync-already pull costs one 16-byte comparison instead of shipping
  /// id lists. Maintained incrementally; O(1).
  [[nodiscard]] const common::Digest128& content_digest() const noexcept {
    return content_digest_;
  }

  /// Drops tombstones older than `retention` (death-certificate expiry).
  /// Returns the number of tombstones collected.
  std::size_t gc_tombstones(common::SimTime now, common::SimTime retention);

  [[nodiscard]] std::size_t key_count() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t version_count() const noexcept;
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  void toggle_digest(const VersionId& id) noexcept;

  // Maximal versions per key, invariant: pairwise concurrent.
  std::map<std::string, std::vector<VersionedValue>, std::less<>> items_;
  VersionVector summary_;
  // XOR of stored version-id digests: insertion == removal == toggle.
  common::Digest128 content_digest_{};
};

/// Convenience for originating local writes: builds a version that dominates
/// every maximal version currently stored for the key, stamps it with a
/// fresh VersionId, applies it locally and returns it for propagation.
class LocalWriter {
 public:
  LocalWriter(common::PeerId self, common::StreamRng rng)
      : self_(self), id_factory_(self, rng) {}

  VersionedValue write(VersionedStore& store, std::string_view key,
                       std::string payload, common::SimTime now);

  VersionedValue erase(VersionedStore& store, std::string_view key,
                       common::SimTime now);

  [[nodiscard]] common::PeerId self() const noexcept { return self_; }

 private:
  VersionedValue make(VersionedStore& store, std::string_view key,
                      std::string payload, bool tombstone, common::SimTime now);

  common::PeerId self_;
  VersionIdFactory id_factory_;
};

}  // namespace updp2p::version

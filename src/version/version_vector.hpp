// Version vectors for causal comparison and anti-entropy reconciliation.
//
// Paper §3: pull-phase peers "inquire for missed updates based on version
// vectors". The vector maps an updating peer to the count of updates it has
// originated; component-wise comparison classifies two replica states as
// equal, dominated, dominating or concurrent.
//
// In the paper's regime nearly every peer eventually publishes, so a store
// summary names hundreds of writers. The vector is one array of (peer,
// counter) pairs sorted by peer, never holding a zero counter: one heap
// block per vector, linear walks for compare and merge, binary search for
// a single peer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace updp2p::version {

enum class Causality {
  kEqual,        ///< identical histories
  kDominates,    ///< this vector has seen strictly more
  kDominatedBy,  ///< the other vector has seen strictly more
  kConcurrent,   ///< conflicting histories (each saw something the other missed)
};

[[nodiscard]] const char* to_string(Causality c) noexcept;

/// Sparse version vector. Absent entries are implicitly zero, so comparing
/// vectors over disjoint updater sets behaves correctly. Canonical form:
/// entries ascend by peer and no counter is zero, so equal histories are
/// equal arrays.
class VersionVector {
 public:
  /// One writer's counter.
  using Entry = std::pair<common::PeerId, std::uint64_t>;

  VersionVector() = default;

  /// The vector that observe()-ing every entry in order builds: entries may
  /// come in any order, a repeated peer keeps its largest counter and zero
  /// counters vanish. O(n log n), O(n) when already ascending; `entries`
  /// becomes the storage.
  [[nodiscard]] static VersionVector from_entries(std::vector<Entry> entries);

  /// Records one more update originated by `peer`; returns the new counter.
  /// A counter that wraps to zero is dropped like any zero.
  std::uint64_t increment(common::PeerId peer);

  /// Sets the counter for `peer` to max(current, counter).
  void observe(common::PeerId peer, std::uint64_t counter);

  [[nodiscard]] std::uint64_t get(common::PeerId peer) const noexcept;

  /// Component-wise maximum (join in the lattice of histories), merged in
  /// place in O(n + m); allocates nothing when `other` names no new peer.
  void merge(const VersionVector& other);

  [[nodiscard]] Causality compare(const VersionVector& other) const noexcept;

  /// True iff every event in this vector is also covered by `other`.
  [[nodiscard]] bool covered_by(const VersionVector& other) const noexcept {
    const Causality c = compare(other);
    return c == Causality::kEqual || c == Causality::kDominatedBy;
  }

  [[nodiscard]] bool empty() const noexcept { return counters_.empty(); }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return counters_.size();
  }
  /// Total number of update events summarised by this vector.
  [[nodiscard]] std::uint64_t total_events() const noexcept;

  /// Ascending by peer, no zero counter.
  [[nodiscard]] std::span<const Entry> entries() const noexcept {
    return counters_;
  }

  friend bool operator==(const VersionVector&, const VersionVector&) = default;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Entry> counters_;  ///< ascending by peer, no zero counter
};

std::ostream& operator<<(std::ostream& os, const VersionVector& vv);

}  // namespace updp2p::version

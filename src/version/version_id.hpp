// Universally-unique version identifiers.
//
// Paper §3 footnote 1: a version identifier is "computed locally by applying
// a cryptographically secure hash function to the concatenated values of the
// current date and time, the current IP address and a large random number".
// In simulation, (logical timestamp, peer id, random nonce) carry the same
// uniqueness-bearing entropy; see DESIGN.md substitution table.
#pragma once

#include <compare>
#include <iosfwd>
#include <string>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace updp2p::version {

/// Opaque 128-bit version identifier; totally ordered only for container
/// use — ordering carries no causal meaning (that is the version vector's
/// job).
class VersionId {
 public:
  constexpr VersionId() noexcept = default;
  constexpr explicit VersionId(common::Digest128 digest) noexcept
      : digest_(digest) {}

  [[nodiscard]] constexpr const common::Digest128& digest() const noexcept {
    return digest_;
  }
  [[nodiscard]] constexpr bool is_null() const noexcept {
    return digest_ == common::Digest128{};
  }
  [[nodiscard]] std::string to_string() const { return digest_.to_hex(); }

  friend constexpr auto operator<=>(const VersionId&,
                                    const VersionId&) noexcept = default;

 private:
  common::Digest128 digest_{};
};

std::ostream& operator<<(std::ostream& os, const VersionId& id);

/// Mints fresh version ids for one peer. Deterministic given the seed rng.
class VersionIdFactory {
 public:
  VersionIdFactory(common::PeerId owner, common::StreamRng rng) noexcept
      : owner_(owner), rng_(rng) {}

  /// `logical_time` mirrors the paper's date/time ingredient.
  [[nodiscard]] VersionId mint(common::SimTime logical_time) noexcept;

 private:
  common::PeerId owner_;
  common::StreamRng rng_;
  std::uint64_t counter_ = 0;
};

}  // namespace updp2p::version

template <>
struct std::hash<updp2p::version::VersionId> {
  std::size_t operator()(const updp2p::version::VersionId& id) const noexcept {
    return std::hash<updp2p::common::Digest128>{}(id.digest());
  }
};

// Strong identifier and scalar types shared by every updp2p module.
//
// The paper's model is expressed over peers, replicas, push rounds and
// fractions of populations. Mixing those up silently (e.g. passing a round
// number where a peer index is expected) is the classic source of simulator
// bugs, so each concept gets its own vocabulary type.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>

namespace updp2p::common {

/// CRTP-free strong integer wrapper. `Tag` makes each instantiation a
/// distinct type; `Rep` is the underlying representation.
template <typename Tag, typename Rep = std::uint64_t>
class StrongId {
 public:
  using rep_type = Rep;

  constexpr StrongId() noexcept = default;
  constexpr explicit StrongId(Rep value) noexcept : value_(value) {}

  [[nodiscard]] constexpr Rep value() const noexcept { return value_; }

  friend constexpr auto operator<=>(StrongId, StrongId) noexcept = default;

  /// Sentinel distinct from every id produced by normal allocation.
  [[nodiscard]] static constexpr StrongId invalid() noexcept {
    return StrongId(std::numeric_limits<Rep>::max());
  }

  [[nodiscard]] constexpr bool is_valid() const noexcept {
    return *this != invalid();
  }

 private:
  Rep value_ = 0;
};

struct PeerIdTag {};

/// Identifies one peer/replica in a simulated population. Dense (0..N-1)
/// so containers indexed by peer are plain vectors.
using PeerId = StrongId<PeerIdTag, std::uint32_t>;

/// Push-round counter `t` from the paper's analysis (Table 1).
using Round = std::uint32_t;

/// Continuous (virtual or wall-clock) time of the runtime layer, in seconds.
using SimTime = double;

template <typename Tag, typename Rep>
std::ostream& operator<<(std::ostream& os, StrongId<Tag, Rep> id);

std::ostream& operator<<(std::ostream& os, PeerId id);

}  // namespace updp2p::common

template <>
struct std::hash<updp2p::common::PeerId> {
  std::size_t operator()(updp2p::common::PeerId id) const noexcept {
    return std::hash<updp2p::common::PeerId::rep_type>{}(id.value());
  }
};

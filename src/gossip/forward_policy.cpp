#include "gossip/forward_policy.hpp"

#include <algorithm>
#include <cmath>

namespace updp2p::gossip {

double ForwardDecider::probability(common::Round t,
                                   double list_fraction) const {
  double p = std::clamp(schedule_(t), 0.0, 1.0);
  if (self_tuning_) {
    // Duplicate pressure gates WHETHER to gossip at all: at a sustained
    // duplicate rate of 1 (every push a duplicate) the probability is
    // multiplied by kDuplicateDamping; exponential in between. The
    // list-coverage signal tunes the fanout instead (effective_fanout) —
    // applying both signals to both knobs over-suppresses.
    p *= std::pow(kDuplicateDamping, duplicate_rate_);
    p = std::max(p, kMinProbability);
  }
  (void)list_fraction;
  return std::clamp(p, 0.0, 1.0);
}

std::size_t ForwardDecider::effective_fanout(std::size_t base,
                                             double list_fraction) const {
  if (!self_tuning_ || base <= 1) return base;
  // List coverage tunes HOW WIDE to gossip: a list covering fraction l of
  // the population leaves only (1−l) plausibly unreached, so pushing to
  // f_r·R·(1−l) fresh targets preserves coverage while cutting duplicates
  // (§6: the message length "provides an estimate of the extent of
  // propagation … to tune f_r and PF").
  const double multiplier = 1.0 - std::clamp(list_fraction, 0.0, 1.0);
  const auto fanout = static_cast<std::size_t>(
      static_cast<double>(base) * multiplier + 0.5);
  return std::max<std::size_t>(fanout, 1);
}

void ForwardDecider::observe_push(bool duplicate) noexcept {
  duplicate_rate_ = (1.0 - kEwmaAlpha) * duplicate_rate_ +
                    (duplicate ? kEwmaAlpha : 0.0);
}

}  // namespace updp2p::gossip

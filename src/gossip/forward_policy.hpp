// Forward-probability decisions, including the §6 self-tuning controller.
//
// The base schedule PF(t) is deterministic in the push-round counter. The
// self-tuning controller modulates it with two purely local signals the
// paper identifies (§6):
//   * the rate of duplicate pushes recently received — many duplicates mean
//     the rumor has already spread widely, so forwarding is less useful;
//   * the length of the partial flooding list in the received message —
//     a long list directly estimates "the extent of propagation of [the]
//     update message".
#pragma once

#include "analysis/forward_probability.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "gossip/config.hpp"

namespace updp2p::gossip {

class ForwardDecider {
 public:
  explicit ForwardDecider(const GossipConfig& config)
      : schedule_(config.forward_probability),
        self_tuning_(config.self_tuning),
        duplicate_damping_(config.duplicate_damping),
        min_probability_(config.min_forward_probability) {}

  /// Effective forwarding probability for an update received with round
  /// counter t−1 and about to be pushed in round t. `list_fraction` is the
  /// received partial list length normalised by the believed population.
  [[nodiscard]] double probability(common::Round t,
                                   double list_fraction) const;

  /// Bernoulli decision with the effective probability.
  [[nodiscard]] bool should_forward(common::StreamRng& rng, common::Round t,
                                    double list_fraction) const {
    return rng.bernoulli(probability(t, list_fraction));
  }

  /// §6 also tunes f_r: the effective fanout shrinks with the duplicate
  /// rate and the received list coverage, never below 1. Returns `base`
  /// unchanged when self-tuning is off.
  [[nodiscard]] std::size_t effective_fanout(std::size_t base,
                                             double list_fraction) const;

  /// Feeds the duplicate-rate estimator: call with `true` for a duplicate
  /// push and `false` for a first-time push.
  void observe_push(bool duplicate) noexcept;

  /// Exponentially weighted duplicates-per-push estimate in [0,1].
  [[nodiscard]] double duplicate_rate() const noexcept {
    return duplicate_rate_;
  }

 private:
  analysis::PfSchedule schedule_;
  bool self_tuning_;
  double duplicate_damping_;
  double min_probability_;
  double duplicate_rate_ = 0.0;

  static constexpr double kEwmaAlpha = 0.15;
};

}  // namespace updp2p::gossip

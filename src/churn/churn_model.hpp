// Peer availability (churn) processes.
//
// Paper §3: "peers can go offline at any time according to a random process
// that models the behaviour when peers are online", with σ = P(an online
// peer stays online across one push round) and p_j = P(an offline peer comes
// online in a round). §4.1 analyses the push phase with constant σ and
// p_j ≈ 0; the simulator supports the full process so the simplifications
// can be validated (paper §8 future work).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace updp2p::churn {

/// Dense online/offline membership of a population, with O(1) count.
class OnlineSet {
 public:
  explicit OnlineSet(std::size_t population) : online_(population, false) {}

  void set(common::PeerId peer, bool online) noexcept;
  [[nodiscard]] bool is_online(common::PeerId peer) const noexcept {
    return online_[peer.value()];
  }
  [[nodiscard]] std::size_t population() const noexcept { return online_.size(); }
  [[nodiscard]] std::size_t online_count() const noexcept { return count_; }
  [[nodiscard]] double online_fraction() const noexcept {
    return population() == 0
               ? 0.0
               : static_cast<double>(count_) / static_cast<double>(population());
  }
  /// Materialises the ids of all online peers (for metrics/tests).
  [[nodiscard]] std::vector<common::PeerId> online_peers() const;

 private:
  std::vector<bool> online_;
  std::size_t count_ = 0;
};

/// Round-synchronous churn process, matching the analysis model's timebase.
class ChurnModel {
 public:
  virtual ~ChurnModel() = default;

  /// (Re)initialises the round-0 online set.
  virtual void reset(common::StreamRng& rng) = 0;

  /// Advances the process by one push round.
  virtual void advance(common::StreamRng& rng) = 0;

  [[nodiscard]] const OnlineSet& online() const noexcept { return online_; }
  [[nodiscard]] bool is_online(common::PeerId peer) const noexcept {
    return online_.is_online(peer);
  }
  [[nodiscard]] std::size_t population() const noexcept {
    return online_.population();
  }
  [[nodiscard]] std::size_t online_count() const noexcept {
    return online_.online_count();
  }

 protected:
  explicit ChurnModel(std::size_t population) : online_(population) {}
  OnlineSet& mutable_online() noexcept { return online_; }

 private:
  OnlineSet online_;
};

/// The paper's per-round process: online peers stay with probability σ,
/// offline peers join with probability p_j. σ = 1, p_j = 0 holds a fixed
/// fraction online for the whole push phase — the population model behind
/// Fig. 5 (Sigma = 1); bernoulli(1) and bernoulli(0) consume no draw.
class BernoulliChurn final : public ChurnModel {
 public:
  BernoulliChurn(std::size_t population, double initial_online_fraction,
                 double sigma, double p_join);

  void reset(common::StreamRng& rng) override;
  void advance(common::StreamRng& rng) override;

  [[nodiscard]] double sigma() const noexcept { return sigma_; }
  [[nodiscard]] double p_join() const noexcept { return p_join_; }
  /// Stationary online fraction p_j / (p_j + (1 - σ)).
  [[nodiscard]] double stationary_fraction() const noexcept;

 private:
  double initial_online_fraction_;
  double sigma_;
  double p_join_;
};

/// Replays an explicit per-round schedule (deterministic regression tests,
/// catastrophe scenarios like mass disconnections).
class TraceChurn final : public ChurnModel {
 public:
  /// `schedule[r]` lists the peers online in round r; rounds past the end
  /// of the schedule repeat the last entry.
  TraceChurn(std::size_t population,
             std::vector<std::vector<common::PeerId>> schedule);

  void reset(common::StreamRng& rng) override;
  void advance(common::StreamRng& rng) override;

  [[nodiscard]] std::size_t current_round() const noexcept { return round_; }

 private:
  void apply_round(std::size_t round);

  std::vector<std::vector<common::PeerId>> schedule_;
  std::size_t round_ = 0;
};

/// Continuous-time alternating-renewal availability for
/// runtime::LoopbackCluster: exponential online/offline session durations.
/// The cluster draws both from per-peer StreamRngs. The two draws stay
/// generic over the distribution mixin because the live benchmark's
/// inproc_churn workload still feeds them the xoshiro engine; they are the
/// last engine-generic functions outside src/common.
class SessionProcess {
 public:
  SessionProcess(double mean_online_time, double mean_offline_time);

  /// Initial state sampled from the stationary distribution; returns whether
  /// the peer starts online and the time of its first transition.
  template <typename Engine>
  [[nodiscard]] std::pair<bool, common::SimTime> start(
      common::RngOps<Engine>& rng) const {
    const bool online = rng.bernoulli(availability());
    // Exponential sessions are memoryless, so the residual time in the
    // current state is again exponential with the full mean.
    return {online, rng.exponential(1.0 / mean_of(online))};
  }

  /// Next transition after a state change at `now` into state `online`.
  template <typename Engine>
  [[nodiscard]] common::SimTime next_transition(common::RngOps<Engine>& rng,
                                                bool online,
                                                common::SimTime now) const {
    return now + rng.exponential(1.0 / mean_of(online));
  }

  [[nodiscard]] double availability() const noexcept {
    return mean_online_ / (mean_online_ + mean_offline_);
  }

 private:
  [[nodiscard]] double mean_of(bool online) const noexcept {
    return online ? mean_online_ : mean_offline_;
  }

  double mean_online_;
  double mean_offline_;
};

}  // namespace updp2p::churn

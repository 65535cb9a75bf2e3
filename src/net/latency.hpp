// Latency models for the live transports.
//
// The round-synchronous analysis abstracts latency into "rounds"; the
// continuous-time loopback cluster (pull phase, overlapping push/pull) needs
// concrete per-message delays. Paper §4.1 notes that real networks
// interleave rounds — these models let tests exercise exactly that. The
// inproc live transport samples them for its deterministic delivery
// schedule, drawing from the link's own StreamRng.
#pragma once

#include <memory>

#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace updp2p::net {

/// Strategy for per-message one-way delay.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  [[nodiscard]] virtual common::SimTime sample(common::StreamRng& rng)
      const = 0;
};

/// Every message takes exactly `delay`.
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(common::SimTime delay) : delay_(delay) {
    UPDP2P_ENSURE(delay >= 0.0, "latency must be non-negative");
  }
  [[nodiscard]] common::SimTime sample(
      common::StreamRng& /*rng*/) const override {
    return delay_;
  }

 private:
  common::SimTime delay_;
};

/// Uniform delay in [lo, hi] — jittered rounds.
class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(common::SimTime lo, common::SimTime hi) : lo_(lo), hi_(hi) {
    UPDP2P_ENSURE(lo >= 0.0 && hi >= lo, "require 0 <= lo <= hi");
  }
  [[nodiscard]] common::SimTime sample(common::StreamRng& rng) const override {
    return lo_ + (hi_ - lo_) * rng.uniform01();
  }

 private:
  common::SimTime lo_;
  common::SimTime hi_;
};

/// Heavy-ish tail: base propagation delay plus exponential queueing term.
class ExponentialLatency final : public LatencyModel {
 public:
  ExponentialLatency(common::SimTime base, common::SimTime mean_extra)
      : base_(base), mean_extra_(mean_extra) {
    UPDP2P_ENSURE(base >= 0.0 && mean_extra > 0.0,
                  "base >= 0 and mean_extra > 0 required");
  }
  [[nodiscard]] common::SimTime sample(common::StreamRng& rng) const override {
    return base_ + rng.exponential(1.0 / mean_extra_);
  }

 private:
  common::SimTime base_;
  common::SimTime mean_extra_;
};

}  // namespace updp2p::net

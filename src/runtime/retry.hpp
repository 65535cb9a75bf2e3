// Retry/timeout policy with exponential backoff and jitter.
//
// The live transports are honest about the paper's network model: a push or
// pull request datagram can vanish, and the only signals that it arrived
// are protocol-level — an ack (§6) for a push, a pull response for a pull
// request, a query reply for a query request. PeerRuntime retransmits the
// exact datagram bytes until such a signal cancels the retry or the attempt
// budget runs out (a push's budget is capped at two transmissions). The
// schedule is classic capped exponential backoff with symmetric
// multiplicative jitter so a burst of peers that timed out together does
// not retransmit in lockstep.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace updp2p::runtime {

struct RetryPolicy {
  /// Each further retransmission waits this many times longer.
  static constexpr double kMultiplier = 2.0;

  /// Wait before the first retransmission (attempt 0).
  common::SimTime initial_timeout = 0.5;
  /// Ceiling on any single wait (before jitter).
  common::SimTime max_timeout = 8.0;
  /// Symmetric jitter fraction: the sampled wait is uniform in
  /// [base·(1-jitter), base·(1+jitter)].
  double jitter = 0.2;
  /// Total transmissions of one pull or query request, including the
  /// original send. Pushes are capped lower, at
  /// min(max_attempts, PeerRuntime::kMaxPushTransmissions): §6 never
  /// confirms a push that reaches a peer already holding its version.
  /// 0 and 1 act alike: every datagram is sent once and no retry is
  /// armed.
  unsigned max_attempts = 5;

  /// Deterministic backoff base for retransmission number `attempt`
  /// (0-based): min(initial_timeout · kMultiplier^attempt, max_timeout).
  [[nodiscard]] common::SimTime base_delay(unsigned attempt) const noexcept {
    common::SimTime delay = initial_timeout;
    for (unsigned i = 0; i < attempt; ++i) {
      delay *= kMultiplier;
      if (delay >= max_timeout) return max_timeout;
    }
    return std::min(delay, max_timeout);
  }

  /// Jittered wait before retransmission `attempt`.
  [[nodiscard]] common::SimTime delay(unsigned attempt,
                                      common::StreamRng& rng) const {
    const common::SimTime base = base_delay(attempt);
    if (jitter <= 0.0) return base;
    return base * (1.0 + jitter * (2.0 * rng.uniform01() - 1.0));
  }

  void validate() const {
    UPDP2P_ENSURE(initial_timeout > 0.0, "initial timeout must be positive");
    UPDP2P_ENSURE(max_timeout >= initial_timeout,
                  "max timeout must be >= initial timeout");
    UPDP2P_ENSURE(jitter >= 0.0 && jitter < 1.0, "jitter must be in [0,1)");
  }
};

}  // namespace updp2p::runtime

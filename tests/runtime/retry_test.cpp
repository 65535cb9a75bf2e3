#include "runtime/retry.hpp"

#include <gtest/gtest.h>

namespace updp2p::runtime {
namespace {

TEST(RetryPolicy, BaseDelayGrowsExponentiallyThenCaps) {
  RetryPolicy policy;
  policy.initial_timeout = 0.5;
  policy.max_timeout = 3.0;
  EXPECT_DOUBLE_EQ(policy.base_delay(0), 0.5);
  EXPECT_DOUBLE_EQ(policy.base_delay(1), 1.0);
  EXPECT_DOUBLE_EQ(policy.base_delay(2), 2.0);
  EXPECT_DOUBLE_EQ(policy.base_delay(3), 3.0);   // capped (would be 4.0)
  EXPECT_DOUBLE_EQ(policy.base_delay(10), 3.0);  // stays capped
  EXPECT_DOUBLE_EQ(policy.base_delay(60), 3.0);  // no overflow blowup
}

TEST(RetryPolicy, JitterStaysWithinSymmetricBand) {
  RetryPolicy policy;
  policy.initial_timeout = 1.0;
  policy.jitter = 0.2;
  common::StreamRng rng(7, 1, 2);
  for (int i = 0; i < 10'000; ++i) {
    const double d = policy.delay(0, rng);
    EXPECT_GE(d, 0.8);
    EXPECT_LE(d, 1.2);
  }
}

TEST(RetryPolicy, ZeroJitterIsDeterministicBase) {
  RetryPolicy policy;
  policy.jitter = 0.0;
  common::StreamRng rng(7, 1, 2);
  EXPECT_DOUBLE_EQ(policy.delay(1, rng), policy.base_delay(1));
}

TEST(RetryPolicy, JitteredDelaysReproduceUnderSameStream) {
  RetryPolicy policy;
  const auto draw = [&policy] {
    common::StreamRng rng(42, 3, 0xBACC);
    std::vector<double> delays;
    for (unsigned attempt = 0; attempt < 6; ++attempt) {
      delays.push_back(policy.delay(attempt, rng));
    }
    return delays;
  };
  EXPECT_EQ(draw(), draw());
}

TEST(RetryPolicy, BackoffCapIsExactAtAndPastSaturation) {
  RetryPolicy policy;
  policy.initial_timeout = 0.3;
  policy.max_timeout = 10.0;
  // 0.3 · 2^5 = 9.6 is the last unsaturated wait; from attempt 6 on the
  // base is pinned to the cap exactly — no drift, no overflow.
  EXPECT_DOUBLE_EQ(policy.base_delay(5), 9.6);
  for (unsigned attempt = 6; attempt < 80; ++attempt) {
    EXPECT_DOUBLE_EQ(policy.base_delay(attempt), 10.0);
  }
}

TEST(RetryPolicy, PropertyGridHoldsJitterBandAndMonotoneBase) {
  // Property sweep over the jitter values, all draws pinned to one
  // StreamRng stream: every sampled delay lies inside the symmetric jitter
  // band around its base, and the base sequence is monotone up to the cap.
  const double jitters[] = {0.0, 0.05, 0.2, 0.5, 0.9};
  common::StreamRng rng(2026, 0, 0x7E57);
  for (const double jitter : jitters) {
    RetryPolicy policy;
    policy.initial_timeout = 0.1;
    policy.max_timeout = 2.5;
    policy.jitter = jitter;
    policy.validate();
    for (unsigned attempt = 0; attempt < 48; ++attempt) {
      const double base = policy.base_delay(attempt);
      EXPECT_LE(base, policy.max_timeout);
      if (attempt > 0) {
        EXPECT_GE(base, policy.base_delay(attempt - 1));
      }
      for (int draw = 0; draw < 64; ++draw) {
        const double d = policy.delay(attempt, rng);
        EXPECT_GE(d, base * (1.0 - jitter) - 1e-12)
            << "j=" << jitter << " a=" << attempt;
        EXPECT_LE(d, base * (1.0 + jitter) + 1e-12)
            << "j=" << jitter << " a=" << attempt;
      }
    }
  }
}

TEST(RetryPolicy, DistinctStreamsProduceDistinctSchedules) {
  // The purpose/stream split is what keeps per-destination retry jitter
  // uncorrelated: two peers retrying the same attempt draw from different
  // streams and must not march in lockstep.
  RetryPolicy policy;
  common::StreamRng stream_a(42, 1, 0xBACC);
  common::StreamRng stream_b(42, 2, 0xBACC);
  bool diverged = false;
  for (unsigned attempt = 0; attempt < 16; ++attempt) {
    diverged =
        diverged || policy.delay(attempt, stream_a) !=
                        policy.delay(attempt, stream_b);
  }
  EXPECT_TRUE(diverged);
}

TEST(RetryPolicy, ValidateRejectsBadConfigs) {
  RetryPolicy policy;
  policy.initial_timeout = 0.0;
  EXPECT_DEATH(policy.validate(), "initial timeout");
  policy = {};
  policy.max_timeout = policy.initial_timeout / 2.0;
  EXPECT_DEATH(policy.validate(), "max timeout");
  policy = {};
  policy.jitter = 1.0;
  EXPECT_DEATH(policy.validate(), "jitter");
}

}  // namespace
}  // namespace updp2p::runtime

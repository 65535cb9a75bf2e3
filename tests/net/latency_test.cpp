#include "net/latency.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace updp2p::net {
namespace {

TEST(ConstantLatency, AlwaysSameDelay) {
  ConstantLatency latency(0.5);
  common::StreamRng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(latency.sample(rng), 0.5);
  }
}

TEST(UniformLatency, StaysWithinBounds) {
  UniformLatency latency(0.1, 0.3);
  common::StreamRng rng(2);
  common::RunningStats stats;
  for (int i = 0; i < 50'000; ++i) {
    const double d = latency.sample(rng);
    EXPECT_GE(d, 0.1);
    EXPECT_LE(d, 0.3);
    stats.add(d);
  }
  EXPECT_NEAR(stats.mean(), 0.2, 0.002);
}

TEST(LatencyModels, UsableThroughBasePointer) {
  std::unique_ptr<LatencyModel> model =
      std::make_unique<ConstantLatency>(1.0);
  common::StreamRng rng(4);
  EXPECT_DOUBLE_EQ(model->sample(rng), 1.0);
}

// --- StreamRng draws are reproducible under the same key -------------------

TEST(LatencyModels, StreamRngSequencesReproduceUnderSameKey) {
  UniformLatency uniform(0.1, 0.3);
  const auto draw = [&](std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t purpose) {
    common::StreamRng rng(seed, stream, purpose);
    std::vector<double> samples;
    for (int i = 0; i < 64; ++i) samples.push_back(uniform.sample(rng));
    return samples;
  };
  // Identical (seed, stream, purpose) → identical sequence.
  EXPECT_EQ(draw(11, 22, 33), draw(11, 22, 33));
  // Perturbing any one key component changes the sequence.
  EXPECT_NE(draw(11, 22, 33), draw(12, 22, 33));
  EXPECT_NE(draw(11, 22, 33), draw(11, 23, 33));
  EXPECT_NE(draw(11, 22, 33), draw(11, 22, 34));
}

TEST(LatencyModels, StreamRngSamplesStayInDistributionBounds) {
  UniformLatency uniform(0.1, 0.3);
  common::StreamRng rng(0xFACE, 17, 0x1A7E);
  common::RunningStats uniform_stats;
  for (int i = 0; i < 50'000; ++i) {
    const double d = uniform.sample(rng);
    ASSERT_GE(d, 0.1);
    ASSERT_LE(d, 0.3);
    uniform_stats.add(d);
  }
  EXPECT_NEAR(uniform_stats.mean(), 0.2, 0.002);
}

TEST(LatencyModels, PinnedStreamRngSequence) {
  // Golden pin: these exact samples fall out of (seed=1, stream=2,
  // purpose=3). Any change to the mixin, Philox keying or uniform01
  // mapping shows up here.
  UniformLatency uniform(0.0, 1.0);
  common::StreamRng rng(1, 2, 3);
  const double expected[4] = {
      0.69241494111765978,
      0.97829426112408635,
      0.96014122369173538,
      0.94360612349676021,
  };
  for (const double want : expected) {
    EXPECT_DOUBLE_EQ(uniform.sample(rng), want);
  }
}

}  // namespace
}  // namespace updp2p::net

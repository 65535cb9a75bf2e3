#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <vector>

namespace updp2p::common {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDifferentSequences) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GE(differing, 30);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.split();
  // Child and parent should not mirror each other.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, SplitForIsDeterministicPerId) {
  const Rng parent(7);
  Rng a = parent.split_for(5);
  Rng b = parent.split_for(5);
  EXPECT_EQ(a(), b());
  Rng c = parent.split_for(6);
  Rng d = parent.split_for(5);
  EXPECT_NE(c(), d());
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01Mean) {
  Rng rng(3);
  double sum = 0.0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(Rng, UniformBelowRange) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform_below(17), 17u);
  }
  // bound 1 must always give 0
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_below(1), 0u);
}

TEST(Rng, UniformBelowCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(rng.uniform_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ExponentialMean) {
  Rng rng(8);
  double sum = 0.0;
  constexpr int kSamples = 200'000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, GeometricEdge) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, GeometricMean) {
  Rng rng(9);
  double sum = 0.0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.geometric(0.25));
  }
  // mean of failures-before-success geometric = (1-p)/p = 3.
  EXPECT_NEAR(sum / kSamples, 3.0, 0.1);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(10);
  double sum = 0.0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.poisson(4.0));
  }
  EXPECT_NEAR(sum / kSamples, 4.0, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  Rng rng(10);
  double sum = 0.0;
  constexpr int kSamples = 50'000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.poisson(200.0));
  }
  EXPECT_NEAR(sum / kSamples, 200.0, 2.0);
}

TEST(Rng, PoissonZero) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(12);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::unordered_set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(13);
  const auto sample = rng.sample_without_replacement(10, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementOverask) {
  Rng rng(13);
  EXPECT_EQ(rng.sample_without_replacement(5, 50).size(), 5u);
}

TEST(Rng, SampleWithoutReplacementEmpty) {
  Rng rng(13);
  EXPECT_TRUE(rng.sample_without_replacement(0, 5).empty());
  EXPECT_TRUE(rng.sample_without_replacement(5, 0).empty());
}

TEST(Rng, SampleIsApproximatelyUniform) {
  Rng rng(14);
  std::vector<int> counts(10, 0);
  constexpr int kTrials = 20'000;
  for (int i = 0; i < kTrials; ++i) {
    for (const auto v : rng.sample_without_replacement(10, 3)) ++counts[v];
  }
  // Each element expected in 3/10 of the trials.
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.3, 0.02);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(15);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = values;
  rng.shuffle(std::span<int>(copy));
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, values);
}

TEST(Rng, PickIndexInRange) {
  Rng rng(16);
  for (int i = 0; i < 1'000; ++i) EXPECT_LT(rng.pick_index(7), 7u);
}

// Property sweep: uniform_below is unbiased across bounds.
class RngUniformSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformSweep, MeanMatchesHalfBound) {
  const std::uint64_t bound = GetParam();
  Rng rng(bound * 31 + 1);
  double sum = 0.0;
  constexpr int kSamples = 50'000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.uniform_below(bound));
  }
  const double expected = (static_cast<double>(bound) - 1.0) / 2.0;
  EXPECT_NEAR(sum / kSamples, expected, static_cast<double>(bound) * 0.02);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngUniformSweep,
                         ::testing::Values(2, 3, 10, 100, 1'000, 1'000'000));

// ---------------------------------------------------------------------------
// Counter-based streams (PhiloxStream / StreamRng).

TEST(PhiloxStream, BlockIsAPureFunction) {
  const PhiloxStream::Block ctr{1, 2, 3, 4};
  const auto a = PhiloxStream::block(0xdead, 0xbeef, ctr);
  const auto b = PhiloxStream::block(0xdead, 0xbeef, ctr);
  EXPECT_EQ(a, b);
  // Any counter or key change flips the whole block.
  EXPECT_NE(a, PhiloxStream::block(0xdead, 0xbeef, {1, 2, 3, 5}));
  EXPECT_NE(a, PhiloxStream::block(0xdeae, 0xbeef, ctr));
  EXPECT_NE(a, PhiloxStream::block(0xdead, 0xbef0, ctr));
}

TEST(PhiloxStream, BlockIsConstexpr) {
  constexpr auto block = PhiloxStream::block(1, 2, {3, 4, 5, 6});
  static_assert(block.size() == 4);
  EXPECT_NE(block[0] | block[1] | block[2] | block[3], 0u);
}

TEST(StreamRng, SameKeySameSequence) {
  StreamRng a(42, 7, 3);
  StreamRng b(42, 7, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(StreamRng, DistinctStreamsAreIndependent) {
  // Every (seed, stream, purpose) coordinate change yields a different
  // sequence — the property sharded simulations key their draws on.
  StreamRng base(42, 7, 3);
  StreamRng other_seed(43, 7, 3);
  StreamRng other_stream(42, 8, 3);
  StreamRng other_purpose(42, 7, 4);
  bool differs_seed = false, differs_stream = false, differs_purpose = false;
  for (int i = 0; i < 16; ++i) {
    const auto draw = base();
    differs_seed |= draw != other_seed();
    differs_stream |= draw != other_stream();
    differs_purpose |= draw != other_purpose();
  }
  EXPECT_TRUE(differs_seed);
  EXPECT_TRUE(differs_stream);
  EXPECT_TRUE(differs_purpose);
}

TEST(StreamRng, ConstructionIsPositionFree) {
  // Counter-based: a freshly keyed stream always starts at draw 0, no
  // matter when or where it is constructed. Re-keying mid-run (as the
  // simulator does per (recipient, round)) is therefore reproducible.
  StreamRng early(99, 5, 1);
  const auto first = early();
  const auto second = early();
  StreamRng late(99, 5, 1);
  EXPECT_EQ(late(), first);
  EXPECT_EQ(late(), second);
}

/// Draw `index` of the (seed, stream, purpose) stream, read off the
/// counter layout StreamRng documents: the Philox key from the seed, the
/// upper counter half from (stream, purpose), and the lower half the block
/// index, each block giving two draws.
std::uint64_t reference_draw(std::uint64_t seed, std::uint64_t stream,
                             std::uint64_t purpose, std::uint64_t index) {
  std::uint64_t sm = seed;
  const std::uint64_t keyed = splitmix64(sm);
  sm ^= stream * 0x9e3779b97f4a7c15ULL;
  const std::uint64_t stream_mix = splitmix64(sm);
  sm ^= purpose * 0xbf58476d1ce4e5b9ULL;
  const std::uint64_t hi = stream_mix ^ splitmix64(sm);
  const std::uint64_t block = index / 2;
  const auto low = [](std::uint64_t word) {
    return static_cast<std::uint32_t>(word);
  };
  const PhiloxStream::Block out = PhiloxStream::block(
      low(keyed), low(keyed >> 32),
      {low(block), low(block >> 32), low(hi), low(hi >> 32)});
  return index % 2 == 0
             ? out[0] | (static_cast<std::uint64_t>(out[1]) << 32)
             : out[2] | (static_cast<std::uint64_t>(out[3]) << 32);
}

TEST(StreamRng, SeekMatchesSequentialDraws) {
  constexpr std::uint64_t kSeed = 2024;
  constexpr std::uint64_t kStream = (std::uint64_t{7} << 32) | 3;
  constexpr std::uint64_t kPurpose = 0x1A7E;
  constexpr std::uint64_t kDraws = 5;
  StreamRng sequential(kSeed, kStream, kPurpose);
  std::vector<std::uint64_t> draws;
  for (std::uint64_t k = 0; k < 17 + kDraws; ++k) {
    EXPECT_EQ(sequential.position(), k);
    draws.push_back(sequential());
    // The reference reads the stream's own draws, so it can stand in for
    // draws too far out to take one by one.
    EXPECT_EQ(reference_draw(kSeed, kStream, kPurpose, k), draws.back());
  }

  for (std::uint64_t n = 0; n <= 17; ++n) {
    StreamRng rng(kSeed, kStream, kPurpose);
    rng.seek(n);
    EXPECT_EQ(rng.position(), n);
    for (std::uint64_t k = 0; k < kDraws; ++k) {
      EXPECT_EQ(rng(), draws[n + k]) << "seek " << n << ", draw " << k;
      EXPECT_EQ(rng.position(), n + k + 1);
    }
  }

  // Around 2^32 draws (past any 32-bit position) and 2^33, where the
  // block index carries into the counter's second word.
  const std::uint64_t far[] = {(std::uint64_t{1} << 32) - 1,
                               std::uint64_t{1} << 32,
                               (std::uint64_t{1} << 32) + 1,
                               (std::uint64_t{1} << 33) - 1,
                               (std::uint64_t{1} << 33) + 6,
                               (std::uint64_t{1} << 40) + 3};
  for (const std::uint64_t n : far) {
    StreamRng rng(kSeed, kStream, kPurpose);
    rng.seek(n);
    EXPECT_EQ(rng.position(), n);
    for (std::uint64_t k = 0; k < kDraws; ++k) {
      EXPECT_EQ(rng(), reference_draw(kSeed, kStream, kPurpose, n + k))
          << "seek " << n << ", draw " << k;
    }
    EXPECT_EQ(rng.position(), n + kDraws);
  }

  // Seeking a used stream back to 0 replays it, from either half of a block.
  StreamRng used(kSeed, kStream, kPurpose);
  for (int k = 0; k < 7; ++k) (void)used();
  used.seek(0);
  EXPECT_EQ(used.position(), 0u);
  for (std::uint64_t k = 0; k < draws.size(); ++k) {
    EXPECT_EQ(used(), draws[k]) << "replayed draw " << k;
  }
  used.seek(3);
  EXPECT_EQ(used(), draws[3]);
}

TEST(StreamRng, DeriveSeedIsPureAndNonAdvancing) {
  StreamRng rng(7, 1, 0);
  const auto seed_a = rng.derive_seed(123);
  const auto seed_b = rng.derive_seed(123);
  EXPECT_EQ(seed_a, seed_b);
  EXPECT_NE(seed_a, rng.derive_seed(124));
  // Deriving did not consume draws.
  StreamRng untouched(7, 1, 0);
  EXPECT_EQ(rng(), untouched());
}

TEST(StreamRng, SplitForIsDeterministic) {
  const StreamRng parent(11, 2, 0);
  StreamRng child_a = parent.split_for(5);
  StreamRng child_b = parent.split_for(5);
  StreamRng child_c = parent.split_for(6);
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    const auto draw = child_a();
    EXPECT_EQ(draw, child_b());
    differs |= draw != child_c();
  }
  EXPECT_TRUE(differs);
}

TEST(StreamRng, Uniform01InRangeWithPlausibleMean) {
  StreamRng rng(1234, 0, 0);
  double sum = 0.0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(StreamRng, SharesDistributionAlgorithmsWithRng) {
  // The CRTP mixin gives StreamRng the full distribution surface; sanity
  // check a few against their contracts.
  StreamRng rng(555, 3, 1);
  for (int i = 0; i < 1'000; ++i) EXPECT_LT(rng.uniform_below(17), 17u);
  const auto sample = rng.sample_without_replacement(50, 10);
  EXPECT_EQ(sample.size(), 10u);
  EXPECT_EQ(std::unordered_set<std::uint32_t>(sample.begin(), sample.end())
                .size(),
            10u);
  std::vector<int> values{1, 2, 3, 4, 5};
  auto copy = values;
  rng.shuffle(std::span<int>(copy));
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, values);
}

}  // namespace
}  // namespace updp2p::common

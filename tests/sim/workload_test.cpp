#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <map>

namespace updp2p::sim {
namespace {

WorkloadConfig base_config() {
  WorkloadConfig config;
  config.key_count = 10;
  config.zipf_exponent = 1.0;
  config.update_rate = 0.5;
  config.query_rate = 1.0;
  config.seed = 9;
  return config;
}

TEST(Workload, OperationsAreTimeOrderedWithinHorizon) {
  WorkloadGenerator generator(base_config());
  const auto operations = generator.generate(200.0);
  ASSERT_FALSE(operations.empty());
  common::SimTime previous = 0.0;
  for (const auto& op : operations) {
    EXPECT_GE(op.at, previous);
    EXPECT_LT(op.at, 200.0);
    previous = op.at;
  }
}

TEST(Workload, RatesApproximatelyRespected) {
  WorkloadGenerator generator(base_config());
  const auto operations = generator.generate(2'000.0);
  std::size_t updates = 0, queries = 0;
  for (const auto& op : operations) {
    (op.kind == Operation::Kind::kUpdate ? updates : queries) += 1;
  }
  EXPECT_NEAR(static_cast<double>(updates), 1'000.0, 120.0);
  EXPECT_NEAR(static_cast<double>(queries), 2'000.0, 180.0);
}

TEST(Workload, ZipfSkewsTowardHotKeys) {
  auto config = base_config();
  config.zipf_exponent = 1.2;
  WorkloadGenerator generator(config);
  std::map<std::string, int> counts;
  for (const auto& op : generator.generate(3'000.0)) counts[op.key]++;
  // Rank 0 must clearly dominate the coldest key.
  EXPECT_GT(counts[WorkloadGenerator::key_name(0)],
            4 * std::max(1, counts[WorkloadGenerator::key_name(9)]));
}

TEST(Workload, UniformWhenExponentZero) {
  auto config = base_config();
  config.zipf_exponent = 0.0;
  config.query_rate = 5.0;
  config.update_rate = 0.0;
  WorkloadGenerator generator(config);
  std::map<std::string, int> counts;
  const auto operations = generator.generate(4'000.0);
  for (const auto& op : operations) counts[op.key]++;
  const double expected =
      static_cast<double>(operations.size()) / 10.0;
  for (const auto& [key, count] : counts) {
    EXPECT_NEAR(count, expected, expected * 0.25) << key;
  }
}

TEST(Workload, UpdatePayloadsCarryMonotoneRevisions) {
  auto config = base_config();
  config.query_rate = 0.0;
  WorkloadGenerator generator(config);
  std::map<std::string, std::uint64_t> last_rev;
  for (const auto& op : generator.generate(1'000.0)) {
    const auto pos = op.payload.rfind("#rev");
    ASSERT_NE(pos, std::string::npos);
    const auto rev = std::stoull(op.payload.substr(pos + 4));
    EXPECT_GT(rev, last_rev[op.key]);
    last_rev[op.key] = rev;
  }
}

TEST(Workload, DeterministicPerSeed) {
  WorkloadGenerator a(base_config());
  WorkloadGenerator b(base_config());
  const auto ops_a = a.generate(100.0);
  const auto ops_b = b.generate(100.0);
  ASSERT_EQ(ops_a.size(), ops_b.size());
  for (std::size_t i = 0; i < ops_a.size(); ++i) {
    EXPECT_EQ(ops_a[i].at, ops_b[i].at);
    EXPECT_EQ(ops_a[i].key, ops_b[i].key);
  }
}

TEST(Workload, ZeroRatesYieldNothing) {
  auto config = base_config();
  config.update_rate = 0.0;
  config.query_rate = 0.0;
  WorkloadGenerator generator(config);
  EXPECT_TRUE(generator.generate(100.0).empty());
}

TEST(Zipf, RanksStayInRangeAndSkew) {
  common::StreamRng rng(11);
  std::vector<int> counts(20, 0);
  for (int i = 0; i < 50'000; ++i) {
    const auto rank = rng.zipf(20, 1.0);
    ASSERT_LT(rank, 20u);
    ++counts[rank];
  }
  // Monotone-ish decay: rank 0 > rank 4 > rank 19.
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[19]);
  // Rank 0 frequency ≈ 1 / H_20 ≈ 0.278 for s=1.
  EXPECT_NEAR(static_cast<double>(counts[0]) / 50'000.0, 0.278, 0.03);
}

TEST(Zipf, DegenerateCases) {
  common::StreamRng rng(12);
  EXPECT_EQ(rng.zipf(1, 1.0), 0u);
  EXPECT_EQ(rng.zipf(0, 1.0), 0u);
}

}  // namespace
}  // namespace updp2p::sim

#include "sim/workload.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace updp2p::sim {

namespace {
/// Purpose key of the generator's stream.
constexpr std::uint64_t kWorkloadPurpose = 0x30AD;
}  // namespace

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config)
    : config_(config),
      rng_(config.seed, 0, kWorkloadPurpose),
      revision_(config.key_count, 0) {
  UPDP2P_ENSURE(config_.key_count > 0, "need at least one key");
  UPDP2P_ENSURE(config_.zipf_exponent >= 0.0, "zipf exponent >= 0");
  UPDP2P_ENSURE(config_.update_rate >= 0.0 && config_.query_rate >= 0.0,
                "rates must be non-negative");
}

std::string WorkloadGenerator::key_name(std::size_t rank) {
  return "key-" + std::to_string(rank);
}

std::vector<Operation> WorkloadGenerator::generate(common::SimTime horizon) {
  std::vector<Operation> operations;

  auto pick_key = [this]() -> std::size_t {
    if (config_.zipf_exponent <= 0.0) {
      return rng_.pick_index(config_.key_count);
    }
    return static_cast<std::size_t>(
        rng_.zipf(config_.key_count, config_.zipf_exponent));
  };

  // Two independent Poisson processes, merged and sorted.
  if (config_.update_rate > 0.0) {
    common::SimTime t = rng_.exponential(config_.update_rate);
    while (t < horizon) {
      Operation op;
      op.kind = Operation::Kind::kUpdate;
      op.at = t;
      const std::size_t rank = pick_key();
      op.key = key_name(rank);
      op.payload = op.key + "#rev" + std::to_string(++revision_[rank]);
      operations.push_back(std::move(op));
      t += rng_.exponential(config_.update_rate);
    }
  }
  if (config_.query_rate > 0.0) {
    common::SimTime t = rng_.exponential(config_.query_rate);
    while (t < horizon) {
      Operation op;
      op.kind = Operation::Kind::kQuery;
      op.at = t;
      op.key = key_name(pick_key());
      operations.push_back(std::move(op));
      t += rng_.exponential(config_.query_rate);
    }
  }
  std::sort(operations.begin(), operations.end(),
            [](const Operation& a, const Operation& b) { return a.at < b.at; });
  return operations;
}

}  // namespace updp2p::sim

// Workload generation for sustained-update experiments.
//
// The paper assumes "consecutive updates are distributed sparsely" (§2).
// The workload generator produces update/query streams so experiments can
// both stay inside that assumption and deliberately violate it (update
// storms), with the skewed key popularity ("hot items", §2) real systems
// exhibit.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace updp2p::sim {

struct WorkloadConfig {
  std::size_t key_count = 50;
  /// Zipf exponent of key popularity (0 = uniform; ~1 = web-like skew).
  double zipf_exponent = 0.9;
  /// Mean updates per unit of simulated time (Poisson arrivals).
  double update_rate = 0.05;
  /// Mean queries per unit of simulated time.
  double query_rate = 0.5;
  std::uint64_t seed = 0x30ad;
};

/// One generated operation.
struct Operation {
  enum class Kind { kUpdate, kQuery } kind = Kind::kUpdate;
  common::SimTime at = 0.0;
  std::string key;
  std::string payload;  ///< updates only; carries a monotone revision tag
};

/// Generates a time-ordered operation stream over [0, horizon).
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadConfig config);

  [[nodiscard]] std::vector<Operation> generate(common::SimTime horizon);

  /// The key name for a popularity rank (rank 0 = hottest).
  [[nodiscard]] static std::string key_name(std::size_t rank);

 private:
  WorkloadConfig config_;
  common::StreamRng rng_;
  std::vector<std::uint64_t> revision_;  ///< per-key update counter
};

}  // namespace updp2p::sim

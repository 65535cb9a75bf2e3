// Order statistics and span arithmetic shared by every workload.
//
// Percentiles use linear interpolation between closest ranks (the
// definition numpy calls "linear"), so a p99 over n samples moves smoothly
// as samples are added instead of jumping between order statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace livebench {

/// q-quantile (q in [0,1]) of `values`; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Median and p99 of a timing sample, with the sample count and how many
/// samples lie strictly above the p99 (a p99 needs at least ten of those
/// to mean anything).
struct Summary {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;
  std::size_t beyond_p99 = 0;
};
[[nodiscard]] Summary summarize(const std::vector<double>& values);

/// Half-open interval of clock readings, in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// A span's self time: its duration minus the part of it that the union
/// of its children covers. Children may overlap one another and may spill
/// outside the parent; only the covered part of the parent counts.
[[nodiscard]] std::int64_t self_time(Interval parent,
                                     std::vector<Interval> children);

}  // namespace livebench

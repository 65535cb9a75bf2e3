#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace livebench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Summary summarize(const std::vector<double>& values) {
  Summary summary;
  summary.count = values.size();
  if (values.empty()) return summary;
  summary.p50 = percentile(values, 0.50);
  summary.p99 = percentile(values, 0.99);
  summary.beyond_p99 = static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [&](double v) { return v > summary.p99; }));
  return summary;
}

std::int64_t self_time(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.start) return 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::int64_t covered = 0;
  std::int64_t reach = parent.start;  // end of the union covered so far
  for (const Interval& child : children) {
    const std::int64_t start = std::max({child.start, parent.start, reach});
    const std::int64_t end = std::min(child.end, parent.end);
    if (end > start) covered += end - start;
    reach = std::max(reach, std::min(child.end, parent.end));
  }
  return (parent.end - parent.start) - covered;
}

}  // namespace livebench

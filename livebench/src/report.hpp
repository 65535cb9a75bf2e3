// Benchmark report: named metrics with units, correctness gates, failure
// counts and provenance, printed as text lines followed by one JSON object
// on the last line of standard output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace livebench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports and BENCHMARK.json gates;
/// see README.md for how each is defined on each workload. Latencies and
/// wall-clock rates are reported too, in the text only.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric. A workload whose path does not include a
/// layer reports that layer's metrics as 0, marked n/a in the text.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void metric(const std::string& name, double value, const std::string& unit,
              std::string note = {});
  /// Adds `<stem>_p50_<unit>` and `<stem>_p99_<unit>` from a sample.
  void timing(const std::string& stem, const std::vector<double>& sample,
              const std::string& unit);
  void not_applicable(const std::string& name, const std::string& unit);
  void gate(const std::string& name, bool pass, std::string detail);
  void info(const std::string& key, std::string value);
  void operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const;
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// Reports every listed metric the workload did not measure as n/a.
  void complete(const std::vector<MetricSpec>& specs);

  /// Text lines, then the JSON object (every metric) as the last line.
  void print(std::ostream& out) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  struct Gate {
    std::string name;
    bool pass = false;
    std::string detail;
  };

  std::string workload_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<Metric> metrics_;
  std::vector<Gate> gates_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Formats a double with every significant digit (round-trips exactly).
[[nodiscard]] std::string format_number(double value);

}  // namespace livebench

#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace livebench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"cpu_us_per_update", "us"},
      {"msgs_per_update", "count"},
      {"bytes_per_update", "B"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"net.send_ns", "ns"},
      {"net.drain_ns_per_datagram", "ns"},
      {"net.datagrams_per_drain", "count"},
      {"net.empty_drain_frac", "ratio"},
      {"net.busy_frac", "ratio"},
      {"net.send_fail_frac", "ratio"},
      {"net.inproc.advance_ns_per_datagram", "ns"},
      {"net.inproc.dropped_offline_frac", "ratio"},
      {"net.inproc.dropped_loss_frac", "ratio"},
      {"runtime.poll_self_ns_per_datagram", "ns"},
      {"runtime.publish_ns", "ns"},
      {"runtime.reconnect_ns", "ns"},
      {"runtime.next_deadline_ns", "ns"},
      {"runtime.retransmit_frac", "ratio"},
      {"runtime.retries_exhausted_per_update", "count"},
      {"runtime.retry_cancel_frac", "ratio"},
      {"runtime.pending_retries_max", "count"},
      {"runtime.frames_reused_frac", "ratio"},
      {"gossip.codec.probe_ns", "ns"},
      {"gossip.codec.decode_push_ns", "ns"},
      {"gossip.codec.decode_ns", "ns"},
      {"gossip.codec.encode_ns", "ns"},
      {"gossip.node.first_receipt_ns", "ns"},
      {"gossip.node.duplicate_ns", "ns"},
      {"gossip.node.pull_request_ns", "ns"},
      {"gossip.node.dup_frac", "ratio"},
      {"gossip.node.forwards_per_first_receipt", "count"},
      {"gossip.node.pull_requests_per_reconnect", "count"},
      {"gossip.node.pull_response_bytes_per_reconnect", "B"},
      {"store.append_ns", "ns"},
      {"store.appends_per_update", "count"},
      {"store.bytes_per_update", "B"},
      {"store.snapshot_ms", "ms"},
      {"sim.round_ms", "ms"},
      {"sim.rounds_per_update", "rounds"},
      {"sim.dup_frac", "ratio"},
      {"sim.bytes_per_msg", "B"},
      {"driver.publish_lag_p99_ms", "ms"},
      {"driver.idle_frac", "ratio"},
      {"driver.check_ns_per_step", "ns"},
      {"trace.overhead_ratio", "ratio"},
  };
  return specs;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::string note) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric = Metric{name, value, unit, std::move(note)};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, std::move(note)});
}

void Report::timing(const std::string& stem, const std::vector<double>& sample,
                    const std::string& unit) {
  const Summary summary = summarize(sample);
  const std::string n = "n=" + std::to_string(summary.count);
  metric(stem + "_p50_" + unit, summary.p50, unit, n);
  metric(stem + "_p99_" + unit, summary.p99, unit,
         n + ", " + std::to_string(summary.beyond_p99) + " beyond p99");
}

void Report::not_applicable(const std::string& name, const std::string& unit) {
  metric(name, 0.0, unit, "n/a: layer not on this workload's path");
}

void Report::gate(const std::string& name, bool pass, std::string detail) {
  gates_.push_back(Gate{name, pass, std::move(detail)});
}

void Report::info(const std::string& key, std::string value) {
  info_.emplace_back(key, std::move(value));
}

bool Report::correct() const {
  if (gates_.empty()) return false;
  for (const Gate& gate : gates_) {
    if (!gate.pass) return false;
  }
  return true;
}

bool Report::has(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return true;
  }
  return false;
}

void Report::complete(const std::vector<MetricSpec>& specs) {
  for (const MetricSpec& spec : specs) {
    if (!has(spec.name)) not_applicable(spec.name, spec.unit);
  }
}

namespace {
std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}
}  // namespace

void Report::print(std::ostream& out) const {
  out << "workload " << workload_ << "\n";
  for (const auto& [key, value] : info_) {
    out << "info " << key << " " << value << "\n";
  }
  for (const Metric& metric : metrics_) {
    char line[160];
    std::snprintf(line, sizeof line, "metric %-44s %16.6g %-7s", metric.name.c_str(),
                  metric.value, metric.unit.c_str());
    out << line;
    if (!metric.note.empty()) out << " (" << metric.note << ")";
    out << "\n";
  }
  for (const Gate& gate : gates_) {
    out << "gate " << gate.name << " " << (gate.pass ? "pass" : "FAIL");
    if (!gate.detail.empty()) out << " (" << gate.detail << ")";
    out << "\n";
  }
  out << "operations failed " << failed_ << " of " << attempted_
      << " attempted\n";
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics_) {
    if (!first) out << ", ";
    first = false;
    out << json_string(metric.name) << ": {\"value\": "
        << format_number(metric.value)
        << ", \"unit\": " << json_string(metric.unit) << "}";
  }
  out << "}}\n";
}

}  // namespace livebench

#include <sys/resource.h>

#include <algorithm>

#include "common/rng.hpp"
#include "workload.hpp"

namespace livebench {

namespace u = updp2p;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  u::common::StreamRng rng(seed, salt, 0xb5eed);
  return rng();
}

std::string make_value(std::uint64_t seed, std::uint64_t index,
                       std::size_t bytes) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  u::common::StreamRng rng(seed, index, 0xfa1);
  std::string value(bytes, 'x');
  for (char& c : value) c = kAlphabet[rng() % (sizeof kAlphabet - 1)];
  return value;
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool is_aware(const u::gossip::ReplicaNode& node,
              const u::version::VersionedValue& update) {
  if (node.knows_version(update.id)) return true;
  const auto current = node.read(update.key);
  return current && update.history.covered_by(current->history);
}

u::runtime::RuntimeConfig peerd_config(std::size_t population,
                                       std::uint64_t seed) {
  // Mirrors examples/peerd.cpp's option defaults.
  u::runtime::RuntimeConfig config;
  config.seed = seed;
  config.round_duration = 0.25;
  config.gossip.fanout_fraction = 0.5;
  config.gossip.estimated_total_replicas = population;
  config.gossip.acks.enabled = true;
  config.gossip.pull.contacts_per_attempt = 2;
  config.gossip.pull.no_update_timeout = 8;
  config.retry.initial_timeout = 0.1;
  config.retry.max_attempts = 5;
  config.retry.max_timeout = 2.0;
  config.tick_duration = 0.01;  // kTick in udp_steady.cpp
  config.start_online = false;
  config.store.snapshot_every_records = 256;
  config.store.fsync_appends = false;
  return config;
}

void Totals::add(const u::runtime::PeerRuntime& peer,
                 const u::net::Transport& transport) {
  const u::net::TransportStats& net = transport.stats();
  sent += net.datagrams_sent;
  bytes_sent += net.bytes_sent;
  send_failed += net.send_no_route + net.send_errors + net.send_short_writes;
  frames_rejected += net.frames_rejected;
  const u::runtime::RuntimeStats& rt = peer.stats();
  datagrams_out += rt.datagrams_out;
  datagrams_in += rt.datagrams_in;
  decode_errors += rt.decode_errors;
  retransmits += rt.retransmits;
  retries_armed += rt.retries_armed;
  retries_cancelled += rt.retries_cancelled;
  retries_exhausted += rt.retries_exhausted;
  frames_reused += rt.frames_reused;
  retransmit_reencodes += rt.retransmit_reencodes;
  wal_appends += rt.wal_appends;
  wal_append_failures += rt.wal_append_failures;
  snapshots_written += rt.snapshots_written;
  snapshot_failures += rt.snapshot_failures;
  pull_response_bytes_in += rt.pull_response_bytes_in;
  const u::gossip::NodeStats& node = peer.node().stats();
  pushes_received += node.pushes_received;
  duplicate_pushes += node.duplicate_pushes;
  pushes_forwarded += node.pushes_forwarded;
  pull_requests_sent += node.pull_requests_sent;
  if (const u::store::ReplicaStore* store = peer.replica_store()) {
    store_records += store->stats().records_appended;
    store_bytes += store->stats().bytes_appended;
  }
}

Totals Totals::operator-(const Totals& base) const {
  Totals d;
  d.sent = sent - base.sent;
  d.bytes_sent = bytes_sent - base.bytes_sent;
  d.send_failed = send_failed - base.send_failed;
  d.frames_rejected = frames_rejected - base.frames_rejected;
  d.datagrams_out = datagrams_out - base.datagrams_out;
  d.datagrams_in = datagrams_in - base.datagrams_in;
  d.decode_errors = decode_errors - base.decode_errors;
  d.retransmits = retransmits - base.retransmits;
  d.retries_armed = retries_armed - base.retries_armed;
  d.retries_cancelled = retries_cancelled - base.retries_cancelled;
  d.retries_exhausted = retries_exhausted - base.retries_exhausted;
  d.frames_reused = frames_reused - base.frames_reused;
  d.retransmit_reencodes = retransmit_reencodes - base.retransmit_reencodes;
  d.wal_appends = wal_appends - base.wal_appends;
  d.wal_append_failures = wal_append_failures - base.wal_append_failures;
  d.snapshots_written = snapshots_written - base.snapshots_written;
  d.snapshot_failures = snapshot_failures - base.snapshot_failures;
  d.pull_response_bytes_in = pull_response_bytes_in - base.pull_response_bytes_in;
  d.pushes_received = pushes_received - base.pushes_received;
  d.duplicate_pushes = duplicate_pushes - base.duplicate_pushes;
  d.pushes_forwarded = pushes_forwarded - base.pushes_forwarded;
  d.pull_requests_sent = pull_requests_sent - base.pull_requests_sent;
  d.store_records = store_records - base.store_records;
  d.store_bytes = store_bytes - base.store_bytes;
  return d;
}

namespace {
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void report_live_counters(Report& report, const Totals& d,
                          std::uint64_t updates, std::size_t pending_max) {
  const auto n = static_cast<double>(updates);
  report.metric("net.send_fail_frac",
                ratio(static_cast<double>(d.send_failed),
                      static_cast<double>(d.sent + d.send_failed)),
                "ratio");
  report.metric("runtime.retransmit_frac",
                ratio(static_cast<double>(d.retransmits),
                      static_cast<double>(d.datagrams_out)),
                "ratio", std::to_string(d.retransmits) + " of " +
                             std::to_string(d.datagrams_out) + " datagrams");
  report.metric("runtime.retries_exhausted_per_update",
                ratio(static_cast<double>(d.retries_exhausted), n), "count");
  report.metric("runtime.retry_cancel_frac",
                ratio(static_cast<double>(d.retries_cancelled),
                      static_cast<double>(d.retries_armed)),
                "ratio");
  report.metric("runtime.pending_retries_max",
                static_cast<double>(pending_max), "count", "largest per peer");
  report.metric("runtime.frames_reused_frac",
                ratio(static_cast<double>(d.frames_reused),
                      static_cast<double>(d.datagrams_out - d.retransmits)),
                "ratio");
  const std::uint64_t first_receipts = d.pushes_received - d.duplicate_pushes;
  report.metric("gossip.node.dup_frac",
                ratio(static_cast<double>(d.duplicate_pushes),
                      static_cast<double>(d.pushes_received)),
                "ratio");
  report.metric("gossip.node.forwards_per_first_receipt",
                ratio(static_cast<double>(d.pushes_forwarded),
                      static_cast<double>(first_receipts)),
                "count");
}

void TraceSegments::close(std::uint64_t updates_done) {
  switch_to(false, updates_done);
  open_ = false;
}

void TraceSegments::switch_to(bool traced, std::uint64_t updates_done) {
  const double cpu = cpu_seconds();
  const std::int64_t wall = now_ns();
  if (open_) {
    cpu_[traced_ ? 1 : 0] += cpu - cpu_start_;
    wall_[traced_ ? 1 : 0] += static_cast<double>(wall - wall_start_) * 1e-9;
    updates_[traced_ ? 1 : 0] += updates_done - updates_start_;
  }
  open_ = true;
  traced_ = traced;
  cpu_start_ = cpu;
  wall_start_ = wall;
  updates_start_ = updates_done;
}

double TraceSegments::overhead_ratio() const {
  if (updates_[0] == 0 || updates_[1] == 0 || cpu_[0] <= 0.0) return 0.0;
  return (cpu_[1] / static_cast<double>(updates_[1])) /
         (cpu_[0] / static_cast<double>(updates_[0]));
}

void gate_zero_counters(Report& report, const Totals& total) {
  const auto zero = [&](const char* name, std::uint64_t value) {
    report.gate(std::string("zero.") + name, value == 0,
                std::to_string(value));
  };
  zero("decode_errors", total.decode_errors);
  zero("frames_rejected", total.frames_rejected);
  zero("retransmit_reencodes", total.retransmit_reencodes);
  zero("wal_append_failures", total.wal_append_failures);
  zero("snapshot_failures", total.snapshot_failures);
}

void report_traced_run(Report& report, const SpanRecorder& spans,
                       const std::vector<const TimingTransport*>& transports,
                       const TraceSegments& segments,
                       const std::string& spans_path) {
  std::uint64_t drains = 0;
  std::uint64_t empty = 0;
  std::uint64_t drained = 0;
  for (const TimingTransport* transport : transports) {
    drains += transport->drains();
    empty += transport->empty_drains();
    drained += transport->drained();
  }
  // A span kind the workload never entered stays n/a.
  const auto per_call = [&](const char* name, SpanKind kind) {
    const SpanTotals& t = spans.totals(kind);
    if (t.count == 0) return;
    report.metric(name, static_cast<double>(t.total_ns) / static_cast<double>(t.count),
                  "ns", "n=" + std::to_string(t.count));
  };
  const auto per_datagram = [&](const char* name, SpanKind kind, bool self) {
    const SpanTotals& t = spans.totals(kind);
    if (t.count == 0 || drained == 0) return;
    report.metric(name,
                  static_cast<double>(self ? t.self_ns : t.total_ns) /
                      static_cast<double>(drained),
                  "ns",
                  std::to_string(t.count) + " calls, " + std::to_string(drained) +
                      " datagrams" + (self ? ", self time" : ""));
  };
  per_call("net.send_ns", SpanKind::kSend);
  per_datagram("net.drain_ns_per_datagram", SpanKind::kDrain, false);
  per_datagram("runtime.poll_self_ns_per_datagram", SpanKind::kPoll, true);
  per_call("runtime.publish_ns", SpanKind::kPublish);
  per_call("runtime.reconnect_ns", SpanKind::kGoOnline);
  per_call("runtime.next_deadline_ns", SpanKind::kNextDeadline);
  per_call("driver.check_ns_per_step", SpanKind::kCheck);
  report.metric("net.datagrams_per_drain",
                ratio(static_cast<double>(drained), static_cast<double>(drains)), "count");
  report.metric("net.empty_drain_frac",
                ratio(static_cast<double>(empty), static_cast<double>(drains)), "ratio");
  const double net_ns = static_cast<double>(spans.totals(SpanKind::kSend).total_ns +
                                            spans.totals(SpanKind::kDrain).total_ns +
                                            spans.totals(SpanKind::kAdvance).total_ns);
  report.metric("net.busy_frac", ratio(net_ns * 1e-9, segments.traced_wall()), "ratio",
                "share of traced wall time inside send, drain and advance_to");
  report.metric("trace.overhead_ratio", segments.overhead_ratio(), "ratio",
                "traced over untraced cpu_us_per_update");
  report.info("spans", spans_path + (spans.write_tsv(spans_path) ? "" : " (write failed)"));
}

}  // namespace livebench

// Workload entry points and the helpers they share.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gossip/node.hpp"
#include "net/transport.hpp"
#include "report.hpp"
#include "runtime/peer_runtime.hpp"
#include "store/replica_store.hpp"
#include "trace.hpp"
#include "version/store.hpp"

namespace livebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for peer data directories and span files.
  std::string out_dir = ".bench_out";
  /// Fault to inject ("" or "drop-pull-responses"); inproc_churn only.
  std::string canary;
};

Report run_udp_steady(const Options& options);
Report run_inproc_churn(const Options& options);
Report run_sim_push(const Options& options);

/// Independent sub-seed for one purpose of a run.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);
/// Deterministic printable payload of `bytes` characters.
[[nodiscard]] std::string make_value(std::uint64_t seed, std::uint64_t index,
                                     std::size_t bytes);
[[nodiscard]] double median(std::vector<double> values);
/// Process peak resident set size in MB.
[[nodiscard]] double peak_rss_mb();

/// A peer is aware of `update` when it stores that version, or when the
/// version it reads for the key has a history equal to or newer than the
/// update's (keys are rewritten, so the update itself may be superseded).
[[nodiscard]] bool is_aware(const updp2p::gossip::ReplicaNode& node,
                            const updp2p::version::VersionedValue& update);

/// The updp2p-peerd defaults for a cluster of `population` peers.
[[nodiscard]] updp2p::runtime::RuntimeConfig peerd_config(
    std::size_t population, std::uint64_t seed);

/// Counters summed over a cluster's peers; differences of two snapshots
/// give what a measured interval did.
struct Totals {
  // net::TransportStats
  std::uint64_t sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t send_failed = 0;  ///< no route + OS error + short write
  std::uint64_t frames_rejected = 0;
  // runtime::RuntimeStats
  std::uint64_t datagrams_out = 0;
  std::uint64_t datagrams_in = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t retries_armed = 0;
  std::uint64_t retries_cancelled = 0;
  std::uint64_t retries_exhausted = 0;
  std::uint64_t frames_reused = 0;
  std::uint64_t retransmit_reencodes = 0;
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_append_failures = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t snapshot_failures = 0;
  std::uint64_t pull_response_bytes_in = 0;
  // gossip::NodeStats
  std::uint64_t pushes_received = 0;
  std::uint64_t duplicate_pushes = 0;
  std::uint64_t pushes_forwarded = 0;
  std::uint64_t pull_requests_sent = 0;
  // store::StoreStats
  std::uint64_t store_records = 0;
  std::uint64_t store_bytes = 0;

  void add(const updp2p::runtime::PeerRuntime& peer,
           const updp2p::net::Transport& transport);
  [[nodiscard]] Totals operator-(const Totals& base) const;
};

/// Per-layer metrics every live (PeerRuntime) workload derives from
/// counters alone.
void report_live_counters(Report& report, const Totals& delta,
                          std::uint64_t updates, std::size_t pending_max);

/// Gates on counters that must stay zero in a healthy run.
void gate_zero_counters(Report& report, const Totals& total);

/// The capture-and-replay pass (replay.cpp): the frames sampled peers
/// drained, fed again through the codec, a fresh node and a throwaway store.
struct ReplayInput {
  updp2p::common::PeerId self;
  updp2p::gossip::GossipConfig gossip;
  std::uint64_t node_seed = 0;
  double round_duration = 1.0;
  std::vector<updp2p::common::PeerId> view;
  std::vector<CapturedFrame> frames;
};
/// `store` is the live peers' store configuration with `data_dir` moved to
/// a throwaway directory; each replayed peer appends under a subdirectory
/// of it. A disabled config (empty `data_dir`, volatile peers) skips the
/// store calls.
void replay_pass(const std::vector<ReplayInput>& inputs,
                 const updp2p::store::StoreConfig& store, Report& report);

/// A traced run alternates traced and untraced segments of one workload in
/// one process; the tracing overhead is the ratio of their CPU time per
/// update.
class TraceSegments {
 public:
  /// Closes the open segment (if any) and opens one, traced or not.
  void switch_to(bool traced, std::uint64_t updates_done);
  /// Closes the open segment for good: the retry tail after the last
  /// publish belongs to no segment.
  void close(std::uint64_t updates_done);
  [[nodiscard]] bool traced() const noexcept { return traced_; }
  /// Traced over untraced CPU time per update; 0 until both ran.
  [[nodiscard]] double overhead_ratio() const;
  /// Wall seconds spent in traced segments.
  [[nodiscard]] double traced_wall() const noexcept { return wall_[1]; }

 private:
  bool open_ = false;
  bool traced_ = false;
  double cpu_start_ = 0.0;
  std::int64_t wall_start_ = 0;
  std::uint64_t updates_start_ = 0;
  double cpu_[2] = {0.0, 0.0};
  double wall_[2] = {0.0, 0.0};
  std::uint64_t updates_[2] = {0, 0};
};

/// Per-layer metrics of a traced live run: span-derived layer costs, the
/// decorators' drain counts, the net layer's share of traced wall time,
/// the tracing overhead; the spans are written to `spans_path`.
void report_traced_run(Report& report, const SpanRecorder& spans,
                       const std::vector<const TimingTransport*>& transports,
                       const TraceSegments& segments,
                       const std::string& spans_path);

/// Sample of peers whose drained frames a traced run captures.
inline constexpr std::size_t kCapturedPeers = 4;
inline constexpr std::size_t kCaptureLimit = 40'000;

}  // namespace livebench

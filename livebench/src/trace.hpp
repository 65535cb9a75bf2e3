// Tracing for the benchmark: an in-memory span recorder and a timing
// net::Transport decorator.
//
// Spans are recorded from the benchmark's own files, around its calls into
// each layer; nothing under src/ is instrumented. The benchmark is single
// threaded, so open spans form a stack: a span's parent is the span open
// when it began, and its self time (duration minus the time its children
// cover) is accumulated as children close. Every span also carries the low
// 64 bits of the version id it concerns (read with gossip::probe_frame for
// transport spans), so the spans of one update share an identifier.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace livebench {

/// Monotonic clock reading in nanoseconds.
[[nodiscard]] std::int64_t now_ns() noexcept;
/// Process CPU time (user + system) in seconds.
[[nodiscard]] double cpu_seconds() noexcept;

enum class SpanKind : std::uint8_t {
  kPoll,          ///< runtime: PeerRuntime::poll
  kPublish,       ///< runtime: PeerRuntime::publish
  kGoOnline,      ///< runtime: PeerRuntime::go_online
  kGoOffline,     ///< runtime: PeerRuntime::go_offline
  kNextDeadline,  ///< runtime: PeerRuntime::next_deadline
  kSend,          ///< net: Transport::send (decorator)
  kDrain,         ///< net: Transport::drain (decorator)
  kAdvance,       ///< net: InprocNetwork::advance_to
  kPropagate,     ///< sim: RoundSimulator::propagate_update
  kCheck,         ///< the benchmark's awareness bookkeeping
  kCount
};
[[nodiscard]] const char* to_string(SpanKind kind) noexcept;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      ///< 1-based, in begin order
  std::uint64_t parent = 0;  ///< id of the enclosing span; 0 at the root
  std::uint64_t update = 0;  ///< version id tag; 0 when none
  std::uint32_t peer = 0;
  SpanKind kind = SpanKind::kPoll;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  /// Keeps at most `log_capacity` finished spans for write_tsv(); the
  /// per-kind totals always cover every span.
  explicit SpanRecorder(std::size_t log_capacity = 1u << 20);

  void begin(SpanKind kind, std::uint32_t peer);
  /// Closes the innermost open span; `update` (when non-zero) tags it.
  void end(std::uint64_t update = 0) { end_at(now_ns(), update); }
  /// As end(), with the closing clock reading taken by the caller, so work
  /// done after it (tagging) stays out of the span.
  void end_at(std::int64_t end_ns, std::uint64_t update);

  [[nodiscard]] const SpanTotals& totals(SpanKind kind) const noexcept {
    return totals_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const std::vector<Span>& log() const noexcept { return log_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t depth() const noexcept { return open_.size(); }

  /// Writes the kept spans as tab-separated text; false on I/O failure.
  bool write_tsv(const std::string& path) const;

 private:
  struct Open {
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t update = 0;
    std::uint32_t peer = 0;
    SpanKind kind = SpanKind::kPoll;
  };

  std::size_t log_capacity_;
  std::vector<Open> open_;
  std::vector<Span> log_;
  std::array<SpanTotals, static_cast<std::size_t>(SpanKind::kCount)> totals_{};
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

/// Opens a span for the lifetime of the object; a null recorder makes it
/// free, so untraced runs share the traced code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanKind kind, std::uint32_t peer)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->begin(kind, peer);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(update_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_update(std::uint64_t update) noexcept { update_ = update; }

 private:
  SpanRecorder* recorder_;
  std::uint64_t update_ = 0;
};

/// Low 64 bits of the pushed (or acked) version id a frame carries, read
/// with the header probe; 0 for other kinds and for malformed bytes.
[[nodiscard]] std::uint64_t update_tag(std::span<const std::byte> frame);

/// One datagram as a sampled peer drained it, with the peer's clock.
struct CapturedFrame {
  updp2p::common::PeerId from;
  double at = 0.0;
  std::vector<std::byte> bytes;
};

/// Timing decorator over a real transport: while a recorder is set, every
/// send and drain runs inside a span and drains are counted; drained
/// datagrams can be copied out for the replay pass. Session state and
/// counters are the wrapped transport's.
class TimingTransport final : public updp2p::net::Transport {
 public:
  explicit TimingTransport(updp2p::net::Transport& inner) : inner_(inner) {}

  /// Null stops recording: calls then pass straight through.
  void set_recorder(SpanRecorder* recorder) noexcept { recorder_ = recorder; }

  [[nodiscard]] updp2p::common::PeerId self() const noexcept override {
    return inner_.self();
  }
  bool send(updp2p::common::PeerId to,
            std::span<const std::byte> payload) override;
  std::size_t drain(std::vector<updp2p::net::InboundDatagram>& out) override;
  void recycle(updp2p::net::DatagramBytes&& bytes) override {
    inner_.recycle(std::move(bytes));
  }
  void set_listening(bool listening) override {
    inner_.set_listening(listening);
  }
  [[nodiscard]] bool listening() const noexcept override {
    return inner_.listening();
  }
  [[nodiscard]] const updp2p::net::TransportStats& stats()
      const noexcept override {
    return inner_.stats();
  }

  /// Copies every drained datagram into `sink`, stamped with `*clock`,
  /// until the sink holds `limit` frames. Null disables capture.
  void capture_into(std::vector<CapturedFrame>* sink, const double* clock,
                    std::size_t limit) noexcept {
    capture_ = sink;
    clock_ = clock;
    capture_limit_ = limit;
  }

  [[nodiscard]] std::uint64_t drains() const noexcept { return drains_; }
  [[nodiscard]] std::uint64_t empty_drains() const noexcept {
    return empty_drains_;
  }
  [[nodiscard]] std::uint64_t drained() const noexcept { return drained_; }

 private:
  updp2p::net::Transport& inner_;
  SpanRecorder* recorder_ = nullptr;
  std::vector<CapturedFrame>* capture_ = nullptr;
  const double* clock_ = nullptr;
  std::size_t capture_limit_ = 0;
  std::uint64_t drains_ = 0;
  std::uint64_t empty_drains_ = 0;
  std::uint64_t drained_ = 0;
};

}  // namespace livebench

#include "trace.hpp"

#include <time.h>

#include <chrono>
#include <fstream>

#include "gossip/codec.hpp"

namespace livebench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

const char* to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kPoll: return "runtime.poll";
    case SpanKind::kPublish: return "runtime.publish";
    case SpanKind::kGoOnline: return "runtime.go_online";
    case SpanKind::kGoOffline: return "runtime.go_offline";
    case SpanKind::kNextDeadline: return "runtime.next_deadline";
    case SpanKind::kSend: return "net.send";
    case SpanKind::kDrain: return "net.drain";
    case SpanKind::kAdvance: return "net.inproc.advance_to";
    case SpanKind::kPropagate: return "sim.propagate_update";
    case SpanKind::kCheck: return "driver.check";
    case SpanKind::kCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder(std::size_t log_capacity)
    : log_capacity_(log_capacity) {
  open_.reserve(16);
}

void SpanRecorder::begin(SpanKind kind, std::uint32_t peer) {
  Open span;
  span.kind = kind;
  span.peer = peer;
  span.id = next_id_++;
  span.start_ns = now_ns();
  open_.push_back(span);
}

void SpanRecorder::end_at(std::int64_t end, std::uint64_t update) {
  Open span = open_.back();
  open_.pop_back();
  if (update != 0) span.update = update;
  const std::int64_t duration = end - span.start_ns;
  SpanTotals& totals = totals_[static_cast<std::size_t>(span.kind)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - span.child_ns;
  const std::uint64_t parent = open_.empty() ? 0 : open_.back().id;
  if (!open_.empty()) open_.back().child_ns += duration;
  if (log_.size() < log_capacity_) {
    log_.push_back(Span{span.start_ns, end, span.id, parent, span.update,
                        span.peer, span.kind});
  } else {
    ++dropped_;
  }
}

bool SpanRecorder::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# id\tparent\tname\tpeer\tupdate\tstart_ns\tend_ns\n";
  if (dropped_ > 0) out << "# spans not kept: " << dropped_ << "\n";
  for (const Span& span : log_) {
    out << span.id << '\t' << span.parent << '\t' << to_string(span.kind)
        << '\t' << span.peer << '\t' << std::hex << span.update << std::dec
        << '\t' << span.start_ns << '\t' << span.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

std::uint64_t update_tag(std::span<const std::byte> frame) {
  const auto probe = updp2p::gossip::probe_frame(frame);
  if (!probe) return 0;
  if (probe->kind != updp2p::gossip::WireKind::kPush &&
      probe->kind != updp2p::gossip::WireKind::kAck) {
    return 0;
  }
  return probe->version.digest().lo;
}

bool TimingTransport::send(updp2p::common::PeerId to,
                           std::span<const std::byte> payload) {
  if (recorder_ == nullptr) return inner_.send(to, payload);
  const std::uint64_t tag = update_tag(payload);
  ScopedSpan span(recorder_, SpanKind::kSend, self().value());
  span.set_update(tag);
  return inner_.send(to, payload);
}

std::size_t TimingTransport::drain(
    std::vector<updp2p::net::InboundDatagram>& out) {
  const std::size_t first = out.size();
  std::size_t count = 0;
  if (recorder_ == nullptr) {
    count = inner_.drain(out);
  } else {
    recorder_->begin(SpanKind::kDrain, self().value());
    count = inner_.drain(out);
    const std::int64_t end = now_ns();
    std::uint64_t tag = 0;
    for (std::size_t i = first; i < out.size() && tag == 0; ++i) {
      tag = update_tag(out[i].bytes);
    }
    recorder_->end_at(end, tag);
    ++drains_;
    drained_ += count;
    if (count == 0) ++empty_drains_;
  }
  if (capture_ != nullptr) {
    for (std::size_t i = first;
         i < out.size() && capture_->size() < capture_limit_; ++i) {
      capture_->push_back(CapturedFrame{
          out[i].from, clock_ != nullptr ? *clock_ : 0.0, out[i].bytes});
    }
  }
  return count;
}

}  // namespace livebench

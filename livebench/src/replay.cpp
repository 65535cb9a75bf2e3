// Capture-and-replay pass: the datagrams sampled peers drained during a
// traced run, fed again in the same order through the public gossip codec,
// a fresh ReplicaNode with the live node's id, config and seed (round
// starts at the recorded rounds), the encoder for whatever the node emits,
// and a ReplicaStore in a throwaway directory. Each call is timed on its own;
// the clock's own cost is measured and subtracted.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <variant>

#include "gossip/codec.hpp"
#include "store/replica_store.hpp"
#include "workload.hpp"

namespace livebench {

namespace u = updp2p;

namespace {

/// Cost of one back-to-back pair of clock readings.
double clock_overhead_ns() {
  std::vector<double> pairs;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t a = now_ns();
    const std::int64_t b = now_ns();
    pairs.push_back(static_cast<double>(b - a));
  }
  return median(std::move(pairs));
}

struct Accumulator {
  double ns = 0.0;
  std::uint64_t calls = 0;
  void add(std::int64_t start, std::int64_t end, double overhead) {
    ns += std::max(0.0, static_cast<double>(end - start) - overhead);
    ++calls;
  }
  [[nodiscard]] double mean() const {
    return calls ? ns / static_cast<double>(calls) : 0.0;
  }
  [[nodiscard]] std::string note() const {
    return "n=" + std::to_string(calls) + " replayed";
  }
};

}  // namespace

void replay_pass(const std::vector<ReplayInput>& inputs,
                 const u::store::StoreConfig& store_config, Report& report) {
  const double overhead = clock_overhead_ns();
  Accumulator probe, decode_push, decode, encode, first_receipt, duplicate,
      pull_request, append, snapshot;
  std::uint64_t frames = 0;
  std::string store_error;

  for (const ReplayInput& input : inputs) {
    frames += input.frames.size();

    // Codec calls on every frame.
    u::common::ChunkedPeerSet list;
    for (const CapturedFrame& frame : input.frames) {
      std::int64_t start = now_ns();
      const auto probed = u::gossip::probe_frame(frame.bytes);
      probe.add(start, now_ns(), overhead);
      if (probed && probed->kind == u::gossip::WireKind::kPush) {
        start = now_ns();
        const auto push = u::gossip::decode_push_into(frame.bytes, list);
        decode_push.add(start, now_ns(), overhead);
        (void)push;
      }
      start = now_ns();
      const auto payload = u::gossip::decode(frame.bytes);
      decode.add(start, now_ns(), overhead);
      (void)payload;
    }

    // Node calls, in drain order, with round starts at the recorded rounds.
    u::gossip::ReplicaNode node(
        input.self, input.gossip,
        u::common::StreamRng(input.node_seed, input.self.value()));
    node.bootstrap(input.view);
    std::optional<u::store::ReplicaStore> store;
    if (store_config.enabled()) {
      u::store::StoreConfig config = store_config;
      config.data_dir =
          store_config.data_dir + "/peer-" + std::to_string(input.self.value());
      std::error_code ec;
      std::filesystem::remove_all(config.data_dir, ec);
      std::filesystem::create_directories(store_config.data_dir, ec);
      std::string error;
      store = u::store::ReplicaStore::open(config, &error);
      if (store) {
        (void)store->take_snapshot_state();
      } else if (store_error.empty()) {
        store_error = error.empty() ? "open failed" : error;
      }
    }
    std::vector<u::gossip::OutboundMessage> out;
    std::vector<u::gossip::GossipPayload> emitted;
    u::common::Round round = 0;
    for (const CapturedFrame& frame : input.frames) {
      const auto at_round =
          static_cast<u::common::Round>(frame.at / input.round_duration);
      while (round < at_round) {
        ++round;
        out.clear();
        node.on_round_start(round, out);
        for (auto& message : out) emitted.push_back(std::move(message.payload));
      }
      const auto probed = u::gossip::probe_frame(frame.bytes);
      if (!probed) continue;
      const bool is_push = probed->kind == u::gossip::WireKind::kPush;
      const bool first = is_push && !node.knows_version(probed->version);
      out.clear();
      const std::int64_t start = now_ns();
      const bool ok = node.handle_frame(frame.from, frame.bytes, round, out);
      const std::int64_t end = now_ns();
      if (!ok) continue;
      if (is_push) {
        (first ? first_receipt : duplicate).add(start, end, overhead);
      } else if (probed->kind == u::gossip::WireKind::kPullRequest) {
        pull_request.add(start, end, overhead);
      }
      for (auto& message : out) emitted.push_back(std::move(message.payload));

      bool log = first;
      if (!is_push && probed->kind == u::gossip::WireKind::kPullResponse) {
        const auto payload = u::gossip::decode(frame.bytes);
        const auto* response =
            payload ? std::get_if<u::gossip::PullResponse>(&*payload) : nullptr;
        log = response != nullptr && !response->missing.empty();
      }
      if (store && log) {
        const std::int64_t append_start = now_ns();
        (void)store->append_frame(frame.from, round, frame.bytes);
        append.add(append_start, now_ns(), overhead);
        if (store->snapshot_due()) {
          const std::int64_t snap_start = now_ns();
          std::string error;
          (void)store->write_snapshot(node.view().membership(),
                                      node.store().all_versions(), &error);
          snapshot.add(snap_start, now_ns(), overhead);
        }
      }
    }

    // Encoder on everything the node emitted.
    u::gossip::WireBytes buffer;
    for (const u::gossip::GossipPayload& payload : emitted) {
      const std::int64_t start = now_ns();
      u::gossip::encode_into(payload, buffer);
      encode.add(start, now_ns(), overhead);
    }
    if (store) {
      store.reset();
      std::error_code ec;
      std::filesystem::remove_all(store_config.data_dir, ec);
    }
  }

  // A call the replay never made stays n/a.
  const auto put = [&](const char* name, const Accumulator& calls,
                       double value, const char* unit, const std::string& extra) {
    if (calls.calls > 0) report.metric(name, value, unit, calls.note() + extra);
  };
  put("gossip.codec.probe_ns", probe, probe.mean(), "ns", "");
  put("gossip.codec.decode_push_ns", decode_push, decode_push.mean(), "ns", "");
  put("gossip.codec.decode_ns", decode, decode.mean(), "ns", "");
  put("gossip.codec.encode_ns", encode, encode.mean(), "ns", "");
  // handle_frame on a first receipt decodes the push itself; what remains
  // is the node's own work.
  put("gossip.node.first_receipt_ns", first_receipt,
      std::max(0.0, first_receipt.mean() - decode_push.mean()), "ns",
      ", handle_frame minus decode_push_into");
  put("gossip.node.duplicate_ns", duplicate, duplicate.mean(), "ns", "");
  put("gossip.node.pull_request_ns", pull_request, pull_request.mean(), "ns", "");
  if (store_config.enabled()) {
    report.gate("replay.store_open", store_error.empty(), store_error);
    put("store.append_ns", append, append.mean(), "ns", "");
    put("store.snapshot_ms", snapshot, snapshot.mean() * 1e-6, "ms", "");
  }
  report.info("replay", std::to_string(frames) + " frames from " +
                            std::to_string(inputs.size()) + " peers");
}

}  // namespace livebench

// Microbenchmarks (google-benchmark) for the library's hot paths: version
// vector comparison/merge, store apply/delta, replica-view sampling,
// partial-list construction, the runtime's timer-queue deadline query and
// fan-out send path, full simulated push phases, and the analytical-model
// evaluation itself.
//
// Usage:
//   micro_core                  full run, console output only
//   micro_core --json=<path>    also writes the run's records (ns/op,
//                               messages/sec, peak RSS) as JSON to <path>;
//                               --json=BENCH_core.json from the repo root
//                               re-captures the checked-in baseline
//   micro_core --smoke          one quick pass over every bench — the
//                               sanitizer-build sanity check
// Any other flags pass through to google-benchmark.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/push_model.hpp"
#include "bench_util.hpp"
#include "common/chunked_peer_set.hpp"
#include "common/rng.hpp"
#include "gossip/codec.hpp"
#include "gossip/node.hpp"
#include "gossip/partial_list.hpp"
#include "gossip/replica_view.hpp"
#include "net/transport.hpp"
#include "runtime/peer_runtime.hpp"
#include "runtime/timer_queue.hpp"
#include "sim/round_simulator.hpp"
#include "store/wal.hpp"
#include "version/store.hpp"

using namespace updp2p;

namespace {

version::VersionVector make_vector(std::size_t entries, std::uint64_t base) {
  version::VersionVector vv;
  for (std::size_t i = 0; i < entries; ++i) {
    vv.observe(common::PeerId(static_cast<std::uint32_t>(i)), base + i);
  }
  return vv;
}

void BM_VersionVectorCompare(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  const auto a = make_vector(entries, 5);
  auto b = make_vector(entries, 5);
  b.increment(common::PeerId(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.compare(b));
  }
}
BENCHMARK(BM_VersionVectorCompare)->Arg(8)->Arg(64)->Arg(512);

void BM_VersionVectorMerge(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  const auto a = make_vector(entries, 5);
  const auto b = make_vector(entries, 9);
  for (auto _ : state) {
    version::VersionVector merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_VersionVectorMerge)->Arg(8)->Arg(64)->Arg(512);

void BM_StoreApplyChain(benchmark::State& state) {
  // Repeatedly apply a chain of dominating versions to one key.
  for (auto _ : state) {
    state.PauseTiming();
    version::VersionedStore store;
    version::LocalWriter writer(common::PeerId(1), common::StreamRng(7));
    state.ResumeTiming();
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(
          writer.write(store, "key", "payload", static_cast<double>(i)));
    }
  }
}
BENCHMARK(BM_StoreApplyChain);

void BM_StoreDelta(benchmark::State& state) {
  version::VersionedStore rich;
  version::LocalWriter writer(common::PeerId(1), common::StreamRng(7));
  for (int i = 0; i < 128; ++i) {
    (void)writer.write(rich, "key-" + std::to_string(i), "payload",
                       static_cast<double>(i));
  }
  const version::VersionVector empty_summary;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rich.missing_given(empty_summary));
  }
}
BENCHMARK(BM_StoreDelta);

void BM_ViewSampleInto(benchmark::State& state) {
  // The allocation-free path the simulators actually run: scratch output
  // vector plus the arena's pick-dedup set.
  const auto population = static_cast<std::uint32_t>(state.range(0));
  gossip::ReplicaView view{common::PeerId(0)};
  for (std::uint32_t i = 1; i < population; ++i) {
    view.add(common::PeerId(i));
  }
  common::StreamRng rng(99);
  std::vector<common::PeerId> out;
  gossip::WorkArena scratch;
  for (auto _ : state) {
    view.sample_into(rng, 32, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ViewSampleInto)->Arg(256)->Arg(4096);

void BM_BuildForwardList(benchmark::State& state) {
  gossip::PartialListConfig config;
  config.mode = gossip::PartialListMode::kDropRandom;
  config.max_entries = 128;
  common::ChunkedPeerSet received;
  std::vector<common::PeerId> targets;
  for (std::uint32_t i = 0; i < 256; ++i) received.insert(common::PeerId(i));
  for (std::uint32_t i = 200; i < 260; ++i) targets.emplace_back(i);
  common::StreamRng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gossip::build_forward_list(
        config, received, targets, common::PeerId(1000), rng));
  }
}
BENCHMARK(BM_BuildForwardList);

void BM_BuildForwardListInto(benchmark::State& state) {
  // The allocation-free path the node runs per handled push: drop the
  // listed targets, merge the received chunked list with the rest and
  // cap-sample, reusing one arena ChunkedPeerSet (warm chunk buffers)
  // across calls.
  gossip::PartialListConfig config;
  config.mode = gossip::PartialListMode::kDropRandom;
  config.max_entries = 128;
  common::ChunkedPeerSet received;
  std::vector<common::PeerId> targets;
  for (std::uint32_t i = 0; i < 256; ++i) received.insert(common::PeerId(i));
  for (std::uint32_t i = 200; i < 260; ++i) targets.emplace_back(i);
  common::StreamRng rng(3);
  common::ChunkedPeerSet out;
  std::vector<common::PeerId> scratch;  // the call compacts its targets
  for (auto _ : state) {
    scratch.assign(targets.begin(), targets.end());
    gossip::build_forward_list_into(config, received, scratch,
                                    common::PeerId::invalid(),
                                    common::PeerId(1000), rng, out);
    benchmark::DoNotOptimize(&out);
  }
}
BENCHMARK(BM_BuildForwardListInto);

void BM_ForwardStep(benchmark::State& state, std::uint32_t universe,
                    std::uint32_t listed, std::uint32_t target_count) {
  // One §4.2 forward step as ReplicaNode::handle_push_first runs it with
  // an unbounded list: R_p \ R_f and the outgoing R_f ∪ {self} ∪ R_p, into
  // one warm output set. R_f holds `listed` ids of the universe and R_p
  // `target_count` independently sampled ones, so some targets are
  // dropped; the forwarder and the sender are on R_f, as a target of the
  // sender would find them.
  common::StreamRng draw(11);
  common::ChunkedPeerSet received;
  for (const std::uint32_t id :
       draw.sample_without_replacement(universe, listed)) {
    received.insert(common::PeerId(id));
  }
  std::vector<common::PeerId> targets;
  for (const std::uint32_t id :
       draw.sample_without_replacement(universe, target_count)) {
    targets.emplace_back(id);
  }
  const common::PeerId self = received.select_rank(0);
  const common::PeerId from = received.select_rank(received.size() - 1);
  gossip::PartialListConfig config;
  config.mode = gossip::PartialListMode::kUnbounded;
  common::StreamRng rng(3);
  common::ChunkedPeerSet out;
  std::vector<common::PeerId> scratch;  // the call compacts its targets
  for (auto _ : state) {
    scratch.assign(targets.begin(), targets.end());
    gossip::build_forward_list_into(config, received, scratch, from, self,
                                    rng, out);
    benchmark::DoNotOptimize(&out);
    benchmark::ClobberMemory();
  }
  state.counters["list"] = static_cast<double>(out.size());
  state.counters["pushes"] = static_cast<double>(scratch.size());
}
// sim_push_10k: a 2 000-id array chunk in a 10 000-id universe, 100 targets.
BENCHMARK_CAPTURE(BM_ForwardStep, array_2000_of_10k, 10'000u, 2'000u, 100u);
// A received bitmap chunk: 6 000 ids (> kArrayChunkMax) of 10 000.
BENCHMARK_CAPTURE(BM_ForwardStep, bitmap_6000_of_10k, 10'000u, 6'000u, 100u);
// A list over four 2^16-id chunks: 3 000 ids of 200 000, 100 targets.
BENCHMARK_CAPTURE(BM_ForwardStep, multi_chunk_3000_of_200k, 200'000u,
                  3'000u, 100u);
// udp_steady: a 32-peer cluster, 16 listed, 8 targets.
BENCHMARK_CAPTURE(BM_ForwardStep, udp_16_of_32, 32u, 16u, 8u);

void BM_AnalyticalPushModel(benchmark::State& state) {
  analysis::PushModelParams params;
  params.total_replicas = static_cast<double>(state.range(0));
  params.initial_online = params.total_replicas * 0.1;
  params.fanout_fraction = 100.0 / params.total_replicas;
  params.pf = analysis::pf_offset_geometric(0.8, 0.7, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::evaluate_push(params));
  }
}
BENCHMARK(BM_AnalyticalPushModel)->Arg(10'000)->Arg(1'000'000);

/// A push frame shaped like acceptance-scale traffic: a realistic value
/// plus a 100-entry flooding list (one array chunk of delta varints).
gossip::GossipPayload codec_bench_payload() {
  gossip::PushMessage push;
  version::VersionedValue value;
  value.key = "calendar/fri-10am";
  value.payload = "standup moved to 10:30 — war room";
  version::VersionIdFactory factory(common::PeerId(3), common::StreamRng(17));
  value.id = factory.mint(12.5);
  value.history.observe(common::PeerId(3), 7);
  value.history.observe(common::PeerId(900), 2);
  push.value = std::move(value);
  push.round = 4;
  for (std::uint32_t i = 0; i < 100; ++i) {
    push.flooding_list.insert(common::PeerId(13 * i));
  }
  return gossip::GossipPayload{std::move(push)};
}

// The wire pipeline, split by phase. The point of the split: a receiver
// classifying a duplicate pays ONLY the probe row; a first receipt pays
// probe + lazy-decode; the legacy path paid the round-trip row for every
// message. At the paper's ~80% duplicate rate the weighted per-message
// cost collapses toward the probe row.

void BM_CodecRoundTrip(benchmark::State& state) {
  const gossip::GossipPayload payload = codec_bench_payload();
  for (auto _ : state) {
    const gossip::WireBytes frame = gossip::encode(payload);
    auto decoded = gossip::decode(frame);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_CodecRoundTrip);

void BM_CodecEncode(benchmark::State& state) {
  const gossip::GossipPayload payload = codec_bench_payload();
  gossip::WireBytes frame;  // warm, as PeerRuntime's run frame is
  for (auto _ : state) {
    gossip::encode_into(payload, frame);
    benchmark::DoNotOptimize(frame.data());
  }
}
BENCHMARK(BM_CodecEncode);

void BM_CodecProbe(benchmark::State& state) {
  const gossip::WireBytes frame = gossip::encode(codec_bench_payload());
  for (auto _ : state) {
    auto probe = gossip::probe_frame(frame);
    benchmark::DoNotOptimize(probe);
  }
}
BENCHMARK(BM_CodecProbe);

void BM_CodecLazyDecode(benchmark::State& state) {
  const gossip::WireBytes frame = gossip::encode(codec_bench_payload());
  common::ChunkedPeerSet list;  // warm: parked chunks are reused
  for (auto _ : state) {
    auto push = gossip::decode_push_into(frame, list);
    benchmark::DoNotOptimize(push);
  }
}
BENCHMARK(BM_CodecLazyDecode);

/// Attaches the traffic counters the JSON reporter folds into its
/// messages_per_sec / bytes_per_msg / threads columns.
void set_traffic_counters(benchmark::State& state, std::uint64_t messages,
                          std::uint64_t bytes, unsigned threads) {
  state.counters["messages"] =
      benchmark::Counter(static_cast<double>(messages));
  state.counters["bytes"] = benchmark::Counter(static_cast<double>(bytes));
  state.counters["threads"] = benchmark::Counter(static_cast<double>(threads));
}

void BM_StoreAppend(benchmark::State& state) {
  // The durable-store hot path: the per-receipt cost a durable peer pays
  // before its ack leaves — frame one WAL record (CRC-32C over seq+body),
  // one write(2), no fsync (the runtime default).
  const std::string path = "/tmp/updp2p_bench_append.wal";
  std::remove(path.c_str());
  auto wal = store::FrameWal::open_for_append(path, 0, 1, false, nullptr);
  if (!wal) {
    state.SkipWithError("cannot open bench WAL");
    return;
  }
  const gossip::WireBytes frame = gossip::encode(codec_bench_payload());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal->append(common::PeerId(1), 4, frame));
  }
  set_traffic_counters(state, static_cast<std::uint64_t>(state.iterations()),
                       wal->appended_bytes(), 1);
  wal.reset();
  std::remove(path.c_str());
}
BENCHMARK(BM_StoreAppend);

/// A 10k-record WAL image built once through the real appender: distinct
/// versions so every replayed frame mutates the node's store.
std::vector<std::byte> replay_bench_image() {
  const std::string path = "/tmp/updp2p_bench_replay.wal";
  std::remove(path.c_str());
  auto wal = store::FrameWal::open_for_append(path, 0, 1, false, nullptr);
  if (!wal) return {};
  gossip::WireBytes frame;
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    version::VersionedValue value;
    value.key = "key-" + std::to_string(i % 16);
    value.payload = "payload-" + std::to_string(i);
    version::VersionIdFactory factory(common::PeerId(1 + i % 30),
                                      common::StreamRng(i * 7 + 1));
    value.id = factory.mint(static_cast<double>(i));
    value.history.observe(common::PeerId(1 + i % 30), 1 + i);
    value.written_at = static_cast<double>(i);
    gossip::GossipPayload payload =
        gossip::PushMessage{std::move(value), {}, 0};
    gossip::encode_into(payload, frame);
    (void)wal->append(common::PeerId(1 + i % 30), 0, frame);
  }
  wal.reset();
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  std::remove(path.c_str());
  return bytes;
}

void BM_StoreReplay10k(benchmark::State& state) {
  // Crash-recovery replay at snapshot-cadence scale: scan 10k framed
  // records (length + CRC verification each), decode every frame, and
  // apply it through a fresh node's handle_frame — the exact pipeline a
  // restarting durable peer runs before it starts listening.
  const std::vector<std::byte> image = replay_bench_image();
  gossip::GossipConfig config;
  config.estimated_total_replicas = 50;
  config.fanout_fraction = 0.1;
  config.forward_probability = analysis::pf_constant(1.0);
  config.partial_list.mode = gossip::PartialListMode::kUnbounded;
  std::vector<common::PeerId> view;
  for (std::uint32_t i = 1; i < 50; ++i) view.emplace_back(i);
  std::uint64_t replayed = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    gossip::ReplicaNode node(common::PeerId(0), config, common::StreamRng(7));
    node.bootstrap(view);
    std::vector<gossip::OutboundMessage> discard;
    state.ResumeTiming();
    const auto scan =
        store::scan_wal(image, 1, [&](const store::WalRecord& record) {
          discard.clear();
          if (node.handle_frame(record.from, record.frame, record.round,
                                discard)) {
            ++replayed;
          }
        });
    benchmark::DoNotOptimize(scan.records);
    bytes += image.size();
  }
  set_traffic_counters(state, replayed, bytes, 1);
}
BENCHMARK(BM_StoreReplay10k)->Unit(benchmark::kMillisecond);

void BM_TimerQueueNextDeadline(benchmark::State& state) {
  // The event loop's per-poll sleep sizing under a PeerRuntime's retry
  // load: N pending timers spread over 3 s; each step the earliest one is
  // confirmed (cancelled), time moves on by one spacing, a fresh retry is
  // armed 3 s out, and the loop asks for the next deadline.
  const auto pending = static_cast<std::size_t>(state.range(0));
  const double spacing = 3.0 / static_cast<double>(pending);
  runtime::TimerQueue timers;
  std::deque<runtime::TimerQueue::TimerId> in_flight;
  double now = 0.0;
  for (std::size_t i = 1; i <= pending; ++i) {
    in_flight.push_back(timers.schedule_at(spacing * static_cast<double>(i),
                                           [](common::SimTime) {}));
  }
  for (auto _ : state) {
    timers.cancel(in_flight.front());
    in_flight.pop_front();
    now += spacing;
    timers.advance(now);
    in_flight.push_back(timers.schedule_at(now + 3.0, [](common::SimTime) {}));
    benchmark::DoNotOptimize(timers.next_deadline());
  }
}
BENCHMARK(BM_TimerQueueNextDeadline)->Arg(16)->Arg(1024);

/// A transport that only counts what it is handed: no socket, no queue.
class CountingNullTransport final : public net::Transport {
 public:
  [[nodiscard]] common::PeerId self() const noexcept override {
    return common::PeerId(0);
  }
  bool send(common::PeerId /*to*/,
            std::span<const std::byte> payload) override {
    ++stats_.datagrams_sent;
    stats_.bytes_sent += payload.size();
    return true;
  }
  std::size_t drain(std::vector<net::InboundDatagram>& /*out*/) override {
    return 0;
  }
  void set_listening(bool listening) override { listening_ = listening; }
  [[nodiscard]] bool listening() const noexcept override { return listening_; }
  [[nodiscard]] const net::TransportStats& stats() const noexcept override {
    return stats_;
  }

 private:
  bool listening_ = false;
  net::TransportStats stats_;
};

void BM_RuntimeForwardFanOut(benchmark::State& state) {
  // PeerRuntime's send path for one forward: a publish's round-0 push to N
  // targets (f_r = 1 over an N-peer view), each fan-out run encoded once
  // and sent to every target from that frame, handed to a transport that
  // only counts. max_attempts = 1 arms no retry, so no iteration copies
  // the frame; the node's write and target pick are included.
  const auto targets = static_cast<std::uint32_t>(state.range(0));
  runtime::RuntimeConfig config;
  config.gossip.fanout_fraction = 1.0;
  config.gossip.estimated_total_replicas = targets + 1;
  config.retry.max_attempts = 1;
  CountingNullTransport transport;
  runtime::PeerRuntime peer(config, transport);
  std::vector<common::PeerId> view;
  for (std::uint32_t i = 1; i <= targets; ++i) view.emplace_back(i);
  peer.bootstrap(view);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        peer.publish("calendar/fri-10am", "standup moved to 10:30"));
  }
  set_traffic_counters(state, transport.stats().datagrams_sent,
                       transport.stats().bytes_sent, 1);
}
BENCHMARK(BM_RuntimeForwardFanOut)->Arg(4)->Arg(16);

void BM_SimulatorBuild10k(benchmark::State& state) {
  // What every BM_SimulatedUpdate* row pauses timing around: building and
  // destroying the sim_push_10k-shaped simulator (10k replicas, full
  // bootstrap views, one shard). The views share the bootstrap set's
  // bitmap chunks, so the row prices per-node state.
  sim::RoundSimConfig config;
  config.population = 10'000;
  config.gossip.estimated_total_replicas = 10'000;
  config.gossip.fanout_fraction = 0.01;
  config.reconnect_pull = false;
  config.round_timers = false;
  config.shard_threads = 1;
  config.seed = 5;
  for (auto _ : state) {
    auto simulator = sim::make_push_phase_simulator(config, 0.2, 0.95);
    benchmark::DoNotOptimize(simulator.get());
  }
}
BENCHMARK(BM_SimulatorBuild10k)->Unit(benchmark::kMillisecond);

void BM_SimulatedUpdate(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::RoundSimConfig config;
    config.population = population;
    config.gossip.estimated_total_replicas = population;
    config.gossip.fanout_fraction = 0.02;
    config.reconnect_pull = false;
    config.round_timers = false;
    auto simulator = sim::make_push_phase_simulator(config, 0.2, 0.95);
    state.ResumeTiming();
    const sim::RunMetrics metrics = simulator->propagate_update();
    messages += metrics.total_messages();
    bytes += metrics.total_bytes();
    benchmark::DoNotOptimize(&metrics);
  }
  set_traffic_counters(state, messages, bytes, 1);
}
BENCHMARK(BM_SimulatedUpdate)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_SimulatedUpdate10k(benchmark::State& state) {
  // The acceptance-scale run: 10k replicas, 20% online, fanout 100. One
  // iteration is a full propagate_update (roughly 175k protocol messages
  // over 8 rounds), so this measures the whole step_round pipeline —
  // encoding, frame delivery (probe-classified duplicates, streamed
  // first-receipt decodes), forward-list building, dispatch — at scale.
  // Runs the sharded engine at 8 shard threads (results are bit-identical
  // to sequential; see GoldenDeterminism.ShardInvariance).
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::RoundSimConfig config;
    config.population = 10'000;
    config.gossip.estimated_total_replicas = 10'000;
    config.gossip.fanout_fraction = 0.01;
    config.reconnect_pull = false;
    config.round_timers = false;
    config.seed = 5;
    config.shard_threads = 8;
    auto simulator = sim::make_push_phase_simulator(config, 0.2, 0.95);
    state.ResumeTiming();
    const sim::RunMetrics metrics = simulator->propagate_update();
    messages += metrics.total_messages();
    bytes += metrics.total_bytes();
    benchmark::DoNotOptimize(&metrics);
  }
  set_traffic_counters(state, messages, bytes, 8);
}
BENCHMARK(BM_SimulatedUpdate10k)->Unit(benchmark::kMillisecond);

void BM_SimulatedUpdateScaling(benchmark::State& state) {
  // Thread-count scaling sweep over the same 10k-replica run: Arg is the
  // shard_threads value. Because results are bit-identical at every value,
  // the rows differ ONLY in wall-clock — a direct read of parallel
  // speedup (or, on few-core hosts, of sharding overhead).
  const auto shard_threads = static_cast<unsigned>(state.range(0));
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::RoundSimConfig config;
    config.population = 10'000;
    config.gossip.estimated_total_replicas = 10'000;
    config.gossip.fanout_fraction = 0.01;
    config.reconnect_pull = false;
    config.round_timers = false;
    config.seed = 5;
    config.shard_threads = shard_threads;
    auto simulator = sim::make_push_phase_simulator(config, 0.2, 0.95);
    state.ResumeTiming();
    const sim::RunMetrics metrics = simulator->propagate_update();
    messages += metrics.total_messages();
    bytes += metrics.total_bytes();
    benchmark::DoNotOptimize(&metrics);
  }
  set_traffic_counters(state, messages, bytes, shard_threads);
}
BENCHMARK(BM_SimulatedUpdateScaling)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatedUpdateLarge(benchmark::State& state) {
  // Population-scale runs (100k default; 1M behind --large). The point is
  // twofold: wall-clock at population scale, and memory — the SoA/arena
  // work has to keep the 100k run's peak RSS under 1.7 GB (tracked via
  // this bench's rss_delta_kb in BENCH_core.json).
  const auto population = static_cast<std::size_t>(state.range(0));
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::RoundSimConfig config;
    config.population = population;
    config.gossip.estimated_total_replicas = population;
    // Fanout 100 at every scale, like the paper's large-population runs.
    config.gossip.fanout_fraction = 100.0 / static_cast<double>(population);
    // Partial bootstrap views of 300 peers: the regime the paper's
    // partial-knowledge assumption describes, and 3x the fanout, so
    // sampling never starves. Full views would no longer cost memory —
    // views bootstrapped from one set share its bitmap chunks — but this
    // row keeps partial views so its numbers stay comparable.
    config.initial_view_size = 300;
    config.reconnect_pull = false;
    config.round_timers = false;
    config.seed = 5;
    config.shard_threads = 8;
    auto simulator = sim::make_push_phase_simulator(config, 0.2, 0.95);
    state.ResumeTiming();
    const sim::RunMetrics metrics = simulator->propagate_update();
    messages += metrics.total_messages();
    bytes += metrics.total_bytes();
    benchmark::DoNotOptimize(&metrics);
  }
  set_traffic_counters(state, messages, bytes, 8);
}
void RegisterLargeBenches(bool include_million) {
  auto* bench = benchmark::RegisterBenchmark("BM_SimulatedUpdate100k",
                                             BM_SimulatedUpdateLarge)
                    ->Arg(100'000)
                    ->Unit(benchmark::kMillisecond)
                    ->Iterations(1);
  (void)bench;
  if (include_million) {
    benchmark::RegisterBenchmark("BM_SimulatedUpdate1M",
                                 BM_SimulatedUpdateLarge)
        ->Arg(1'000'000)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

/// Console output plus a record of every run for BENCH_core.json.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    // Peak-RSS growth since the previous report batch: attributed to the
    // first record of this batch (batches are per-benchmark, so this pins
    // footprint growth on the bench that caused it).
    const std::int64_t peak_now = bench::peak_rss_kb();
    std::int64_t delta = peak_now - last_peak_kb_;
    last_peak_kb_ = peak_now;
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      bench::CoreBenchRecord record;
      record.name = run.benchmark_name();
      record.ns_per_op = run.real_accumulated_time /
                         static_cast<double>(run.iterations) * 1e9;
      const auto messages = run.counters.find("messages");
      if (messages != run.counters.end() && run.real_accumulated_time > 0) {
        record.messages_per_sec =
            messages->second.value / run.real_accumulated_time;
      }
      const auto bytes = run.counters.find("bytes");
      if (messages != run.counters.end() && bytes != run.counters.end() &&
          messages->second.value > 0) {
        record.bytes_per_msg = bytes->second.value / messages->second.value;
      }
      const auto threads = run.counters.find("threads");
      if (threads != run.counters.end() && threads->second.value >= 1) {
        record.threads = static_cast<unsigned>(threads->second.value);
      }
      record.rss_delta_kb = delta;
      delta = 0;
      records.push_back(std::move(record));
    }
  }
  std::vector<bench::CoreBenchRecord> records;

 private:
  std::int64_t last_peak_kb_ = bench::peak_rss_kb();
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool large = false;
  std::optional<std::string> json_path;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--large") {
      large = true;  // adds the 1M-replica run (several GB, minutes)
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = std::string(arg.substr(7));
    } else {
      args.push_back(argv[i]);
    }
  }
  // Smoke mode: one quick pass over every bench — exercises all hot paths
  // (the sanitizer-build check) without paying for stable statistics.
  // The population-scale benches are skipped: at 100k+ replicas even one
  // iteration dominates a sanity pass.
  char min_time_flag[] = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time_flag);
  if (!smoke) RegisterLargeBenches(large);

  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  std::cout << "peak_rss_kb: " << updp2p::bench::peak_rss_kb() << "\n";
  if (json_path) {
    const auto meta = updp2p::bench::collect_run_meta();
    if (!updp2p::bench::write_core_bench_json(*json_path, reporter.records,
                                              meta)) {
      std::cerr << "failed to write " << *json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << *json_path << " (" << reporter.records.size()
              << " benchmarks)\n";
  }
  return 0;
}

// Message-length analysis (§4.2): L_M(t) = U + R·α·l(t) with the partial
// list growing as l(t) = 1 − (1−f_r)^(t+1), and the capped variant
// l(t) = min(l_max, ·).
//
// The paper's plots ignore message size ("single messages can accommodate
// the messages of maximal size"); §4.2 nonetheless derives the growth law
// and the capping remedy. This bench (a) evaluates the analytical L_M(t)
// series, and (b) reports the byte counts of a simulation whose every
// message travels as a real binary codec frame.
#include <iostream>

#include "analysis/push_model.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "gossip/codec.hpp"
#include "sim/round_simulator.hpp"

using namespace updp2p;

namespace {

void analytical_section() {
  common::TextTable table(
      "analytical message length per round (R=10000, f_r=0.01, U=100B, "
      "alpha=10B)");
  table.header({"round t", "l(t) uncapped", "L_M(t) bytes", "l(t) capped 0.05",
                "L_M(t) capped bytes"});
  analysis::PushModelParams params;
  params.total_replicas = 10'000;
  params.initial_online = 1'000;
  params.sigma = 0.95;
  params.fanout_fraction = 0.01;
  auto capped = params;
  capped.list_cap = 0.05;
  const auto uncapped_run = analysis::evaluate_push(params);
  const auto capped_run = analysis::evaluate_push(capped);
  const std::size_t rounds =
      std::min<std::size_t>({8, uncapped_run.rounds.size(),
                             capped_run.rounds.size()});
  for (std::size_t t = 0; t < rounds; ++t) {
    table.row()
        .cell(t)
        .cell(uncapped_run.rounds[t].list_length, 4)
        .cell(uncapped_run.rounds[t].message_bytes, 0)
        .cell(capped_run.rounds[t].list_length, 4)
        .cell(capped_run.rounds[t].message_bytes, 0);
  }
  table.print(std::cout);
  std::cout << "  paper: l(t) = 1-(1-f_r)^(t+1); capping trades duplicate\n"
            << "  messages for bounded per-message size.\n";
}

void wire_section() {
  common::TextTable table("real codec frames (simulation, 1000 peers)");
  table.header({"accounting", "total bytes", "bytes/push message"});
  sim::RoundSimConfig config;
  config.population = 1'000;
  config.gossip.estimated_total_replicas = config.population;
  config.gossip.fanout_fraction = 0.015;
  config.reconnect_pull = false;
  config.round_timers = false;
  config.seed = 99;
  auto simulator = sim::make_push_phase_simulator(config, 0.3, 1.0);
  const auto metrics = simulator->propagate_update();
  table.row()
      .cell("binary codec (actual frames)")
      .cell(static_cast<std::size_t>(metrics.total_bytes()))
      .cell(static_cast<double>(metrics.total_bytes()) /
                static_cast<double>(std::max<std::uint64_t>(
                    metrics.total_push_messages(), 1)),
            1);
  table.print(std::cout);
  std::cout << "  every message is charged the length of the frame the\n"
            << "  simulator encoded for it (one frame per fan-out run).\n";
}

// Wire cost of the flooding list alone, as a function of how much of the
// id space it covers. Encodes a push carrying the list through the real v2
// codec and subtracts the same push with an empty list, isolating the
// peerset bytes; the flat-u32 column is what a naive fixed-width array
// encoding would spend on the same members.
void compressed_list_section() {
  constexpr std::uint32_t kIdSpace = 10'000;
  common::TextTable table(
      "flooding-list wire cost: chunked delta-varint vs flat u32 "
      "(ids uniform in [0, 10000))");
  table.header({"members", "delta-varint bytes", "bytes/member", "flat u32",
                "ratio"});
  common::StreamRng rng(42);
  for (const std::size_t members :
       {std::size_t{32}, std::size_t{256}, std::size_t{1'024},
        std::size_t{4'096}, std::size_t{9'000}}) {
    common::ChunkedPeerSet set;
    while (set.size() < members) {
      set.insert(common::PeerId(
          static_cast<std::uint32_t>(rng.pick_index(kIdSpace))));
    }
    gossip::PushMessage push;
    push.flooding_list = std::move(set);
    const std::size_t with_list =
        gossip::encode(gossip::GossipPayload(push)).size();
    push.flooding_list.clear();
    const std::size_t without_list =
        gossip::encode(gossip::GossipPayload(push)).size();
    const std::size_t list_bytes = with_list - without_list;
    const double flat = static_cast<double>(members) * 4.0;
    table.row()
        .cell(members)
        .cell(list_bytes)
        .cell(static_cast<double>(list_bytes) / static_cast<double>(members),
              2)
        .cell(static_cast<std::size_t>(flat))
        .cell(static_cast<double>(list_bytes) / flat, 2);
  }
  table.print(std::cout);
  std::cout << "  sparse lists pay ~2 varint bytes per id-gap; past ~6% of\n"
            << "  a 64Ki chunk the bitmap form caps the cost at 8KiB per\n"
            << "  chunk no matter how many more members pile in.\n";
}

}  // namespace

int main() {
  bench::print_banner("Message sizes — L_M(t) growth, capping, and real "
                      "codec frames (§4.2)",
                      "Partial-list growth law and its bandwidth cost");
  analytical_section();
  wire_section();
  compressed_list_section();
  return 0;
}

// Trust management — the paper's very first motivating application (§1:
// "for example trust management [2] or peer commerce … updates in fact may
// occur frequently", citing Aberer & Despotovic, CIKM 2001).
//
// A replica group maintains complaint records about trading peers. Every
// bad transaction appends a complaint (an update); trust checks are §4.4
// queries. Because complaints arrive continuously from many witnesses,
// this is exactly the frequent-update regime the paper designed for: the
// push phase spreads complaints fast; peers returning from offline pull
// what they missed before vouching for anyone.
#include <iostream>

#include "analysis/forward_probability.hpp"
#include "runtime/loopback_cluster.hpp"

using namespace updp2p;

namespace {

std::string complaint_key(int trader) {
  return "complaints/trader-" + std::to_string(trader);
}

int complaint_count(const std::optional<version::VersionedValue>& record) {
  if (!record.has_value()) return 0;
  // Payload format: "count=N;last=..."; count is the writer's tally.
  const auto pos = record->payload.find("count=");
  if (pos == std::string::npos) return 0;
  return std::atoi(record->payload.c_str() + pos + 6);
}

struct Complaint {
  double at;
  int trader;
  std::string record;
};

}  // namespace

int main() {
  runtime::LoopbackClusterConfig config;
  config.population = 200;               // the reputation replica group
  config.sessions.emplace(50.0, 150.0);  // 25% availability
  config.network.latency = std::make_shared<net::ConstantLatency>(0.5);
  config.runtime.retry.max_attempts = 1;  // no retransmission layer
  config.runtime.gossip.estimated_total_replicas = config.population;
  config.runtime.gossip.fanout_fraction = 0.10;
  config.runtime.gossip.forward_probability = analysis::pf_geometric(0.95);
  config.runtime.gossip.pull.no_update_timeout = 30;
  config.runtime.seed = 404;
  runtime::LoopbackCluster network(config);

  std::cout << "== decentralised trust management over " << config.population
            << " mostly-offline peers ==\n";

  // Trader 7 misbehaves repeatedly; each witness updates the complaint
  // record having first read (and causally extending) the current one.
  // Trader 12 has a single old complaint.
  const std::vector<Complaint> complaints = {
      {5.0, 7, "count=1;last=incident-1"},
      {20.0, 12, "count=1;last=dispute"},
      {65.0, 7, "count=2;last=incident-2"},
      {125.0, 7, "count=3;last=incident-3"},
      {185.0, 7, "count=4;last=incident-4"},
  };
  for (const Complaint& complaint : complaints) {
    network.run_until(complaint.at);
    if (const auto witness = network.pick_writer()) {
      network.publish(*witness, complaint_key(complaint.trader),
                      complaint.record);
    }
  }
  network.run_until(300.0);

  // A buyer checks both traders before committing to a deal.
  for (const int trader : {7, 12, 31}) {
    const auto record = network.query(complaint_key(trader), 5,
                                      gossip::QueryRule::kLatestVersion);
    const int count = complaint_count(record);
    std::cout << "trader " << trader << ": " << count << " complaint(s) -> "
              << (count == 0 ? "TRUSTED"
                             : count < 3 ? "CAUTION" : "DO NOT TRADE")
              << (record.has_value()
                      ? "  [" + record->payload + "]"
                      : "")
              << "\n";
  }

  // How consistent is the network's view of the repeat offender?
  const auto latest = network.query(complaint_key(7), 5,
                                    gossip::QueryRule::kLatestVersion);
  std::uint64_t push = 0, pull = 0;
  std::size_t current = 0;
  for (std::size_t i = 0; i < network.population(); ++i) {
    const auto& peer = network.peer(common::PeerId(static_cast<std::uint32_t>(i)));
    const auto local = peer.read(complaint_key(7));
    if (latest && local && local->id == latest->id) ++current;
    push += peer.node().stats().pushes_forwarded;
    pull += peer.node().stats().pull_requests_sent +
            peer.node().stats().pull_requests_received;
  }
  if (latest.has_value()) {
    std::cout << "\nreplicas holding the newest complaint record for "
                 "trader 7: "
              << current << "/" << network.population() << "\n";
  }
  std::cout << "traffic: " << push << " push / " << pull
            << " pull messages for " << complaints.size()
            << " rating updates\n";
  return 0;
}

// E-commerce catalogue on P-Grid — the paper's host system (§1: "peer
// commerce … e-commerce catalogues"; §3: in P-Grid the replicas of one key-
// space partition form the update population).
//
// Builds a P-Grid trie over 512 peers, routes queries to the partition
// responsible for each catalogue item, and runs the hybrid push/pull update
// protocol *inside* that partition's replica group when a price changes.
#include <iostream>
#include <unordered_set>

#include "analysis/forward_probability.hpp"
#include "common/table.hpp"
#include "churn/churn_model.hpp"
#include "pgrid/pgrid.hpp"
#include "sim/round_simulator.hpp"

using namespace updp2p;

int main() {
  // --- 1. Build the P-Grid index ------------------------------------------
  pgrid::PGridConfig grid_config;
  grid_config.peers = 512;
  grid_config.depth = 3;  // 8 partitions, 64 replicas each
  grid_config.refs_per_level = 4;
  grid_config.seed = 11;
  const auto grid = pgrid::PGridNetwork::build(grid_config);
  std::cout << "P-Grid: " << grid.peer_count() << " peers, depth "
            << static_cast<int>(grid.depth()) << " => "
            << (1 << grid.depth()) << " partitions\n";

  // --- 2. Route a catalogue lookup under 30% availability -------------------
  common::StreamRng rng(99);
  churn::BernoulliChurn availability(grid_config.peers, 0.30, 1.0, 0.0);
  availability.reset(rng);
  const auto is_online = [&availability](common::PeerId peer) {
    return availability.is_online(peer);
  };

  const std::string item = "sku/espresso-machine";
  const auto key = pgrid::BitPath::from_key(item, 64);
  const auto origin = availability.online().online_peers().front();
  const auto search =
      grid.search_with_retries(origin, key, is_online, rng, 10);
  std::cout << "lookup \"" << item << "\" from peer " << origin.value()
            << ": " << (search.found ? "found" : "FAILED") << " at peer "
            << (search.found ? std::to_string(search.responsible.value())
                             : "-")
            << " after " << search.hops << " hops / " << search.attempts
            << " probes\n";

  // --- 3. Update the item inside its replica group --------------------------
  const auto& group = grid.replica_group(key);
  std::cout << "replica group for partition "
            << grid.partition_of(key).to_string() << ": " << group.size()
            << " replicas\n";

  // Host just this replica group in the round simulator. Group members get
  // dense local ids 0..|group|-1 for the simulation.
  sim::RoundSimConfig sim_config;
  sim_config.population = group.size();
  sim_config.gossip.estimated_total_replicas = group.size();
  sim_config.gossip.fanout_fraction = 8.0 / static_cast<double>(group.size());
  sim_config.gossip.forward_probability = analysis::pf_geometric(0.9);
  sim_config.seed = 5;
  auto churn = std::make_unique<churn::BernoulliChurn>(
      sim_config.population, 0.30, 0.98, 0.05);
  sim::RoundSimulator simulator(std::move(sim_config), std::move(churn));

  const auto metrics =
      simulator.propagate_update(std::nullopt, item, "price: 249 EUR");
  std::cout << "price update: " << metrics.total_push_messages()
            << " push messages ("
            << common::format_double(metrics.messages_per_initial_online(), 2)
            << "/online replica), "
            << common::format_double(100 * metrics.final_aware_fraction(), 1)
            << "% of online replicas updated in "
            << metrics.rounds_to_quiescence() << " rounds\n";

  // Peers that were offline catch up via pull as they churn back online.
  simulator.run_rounds(120);
  std::size_t consistent = 0;
  for (std::uint32_t i = 0; i < simulator.population(); ++i) {
    const auto value = simulator.node(common::PeerId(i)).read(item);
    if (value.has_value() && value->payload == "price: 249 EUR") ++consistent;
  }
  std::cout << "after 60 rounds of churn + pull: " << consistent << "/"
            << simulator.population()
            << " replicas (online AND offline) hold the new price\n";
  return 0;
}

// index_shell — an interactive shell over the assembled system
// (ReplicatedIndex: P-Grid routing + per-partition hybrid push/pull).
//
//   $ ./build/examples/index_shell
//   updp2p> put users/alice profile-v1
//   updp2p> step 10
//   updp2p> get users/alice
//   updp2p> churn 0.3          # only 30% of peers stay online
//   updp2p> del users/alice
//
// Reads commands from stdin; with no input it prints a short scripted demo
// so automated runs still exercise the system end to end.
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/forward_probability.hpp"
#include "common/rng.hpp"
#include "pgrid/replicated_index.hpp"

using namespace updp2p;

namespace {

void print_help() {
  std::cout <<
      "commands:\n"
      "  put <key> <value...>   write (routed to the responsible partition)\n"
      "  get <key> [latest|majority|hybrid]\n"
      "  del <key>              delete via tombstone\n"
      "  step [n]               run n gossip rounds (default 5)\n"
      "  churn <fraction>       re-roll availability: each peer online w.p. f\n"
      "  online <id> | offline <id>\n"
      "  group <key>            show the replica group of a key\n"
      "  stats                  traffic counters\n"
      "  help | quit\n";
}

gossip::QueryRule parse_rule(const std::string& word) {
  if (word == "majority") return gossip::QueryRule::kMajority;
  if (word == "latest") return gossip::QueryRule::kLatestVersion;
  return gossip::QueryRule::kHybrid;
}

common::PeerId random_online_peer(pgrid::ReplicatedIndex& index,
                                  common::StreamRng& rng) {
  for (int tries = 0; tries < 1'000; ++tries) {
    const common::PeerId peer(
        static_cast<std::uint32_t>(rng.uniform_below(index.population())));
    if (index.is_online(peer)) return peer;
  }
  return common::PeerId(0);
}

bool execute(pgrid::ReplicatedIndex& index, common::StreamRng& rng,
             const std::string& line) {
  std::istringstream in(line);
  std::string command;
  if (!(in >> command) || command.empty() || command[0] == '#') return true;

  if (command == "quit" || command == "exit") return false;
  if (command == "help") {
    print_help();
    return true;
  }
  if (command == "put") {
    std::string key;
    in >> key;
    std::string value;
    std::getline(in, value);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    const auto origin = random_online_peer(index, rng);
    const auto outcome = index.put(origin, key, value);
    std::cout << (outcome.ok ? "ok" : "ROUTING FAILED") << " (origin peer "
              << origin.value() << ", " << outcome.hops << " hops)\n";
    return true;
  }
  if (command == "get") {
    std::string key, rule_word;
    in >> key >> rule_word;
    const auto origin = random_online_peer(index, rng);
    const auto value = index.get(origin, key, parse_rule(rule_word), 3);
    if (value.has_value()) {
      std::cout << key << " = \"" << value->payload << "\"  [history "
                << value->history.to_string() << "]\n";
    } else {
      std::cout << key << " not found (unknown, deleted, or unroutable)\n";
    }
    return true;
  }
  if (command == "del") {
    std::string key;
    in >> key;
    const auto outcome = index.remove(random_online_peer(index, rng), key);
    std::cout << (outcome.ok ? "tombstone pushed" : "ROUTING FAILED") << "\n";
    return true;
  }
  if (command == "step") {
    unsigned rounds = 5;
    in >> rounds;
    index.step_rounds(rounds);
    std::cout << "round " << index.current_round() << ", "
              << index.online_count() << "/" << index.population()
              << " online\n";
    return true;
  }
  if (command == "churn") {
    double fraction = 0.5;
    in >> fraction;
    for (std::uint32_t i = 0; i < index.population(); ++i) {
      index.set_online(common::PeerId(i), rng.bernoulli(fraction));
    }
    std::cout << index.online_count() << "/" << index.population()
              << " peers online\n";
    return true;
  }
  if (command == "online" || command == "offline") {
    std::uint32_t id = 0;
    in >> id;
    if (id < index.population()) {
      index.set_online(common::PeerId(id), command == "online");
      std::cout << "peer " << id << " is now " << command << "\n";
    } else {
      std::cout << "no such peer\n";
    }
    return true;
  }
  if (command == "group") {
    std::string key;
    in >> key;
    const auto path = pgrid::BitPath::from_key(key, 64);
    const auto& group = index.grid().replica_group(path);
    std::cout << "partition " << index.grid().partition_of(path).to_string()
              << ": " << group.size() << " replicas:";
    for (const auto peer : group) {
      std::cout << ' ' << peer.value()
                << (index.is_online(peer) ? "" : "(off)");
    }
    std::cout << "\n";
    return true;
  }
  if (command == "stats") {
    const auto& stats = index.bus_stats();
    std::cout << "sent " << stats.messages_sent << " (delivered "
              << stats.messages_delivered << ", to-offline "
              << stats.messages_to_offline << "), " << stats.bytes_sent
              << " bytes\n";
    return true;
  }
  std::cout << "unknown command; try 'help'\n";
  return true;
}

}  // namespace

int main() {
  pgrid::ReplicatedIndexConfig config;
  config.grid.peers = 256;
  config.grid.depth = 3;  // 8 partitions of 32 replicas
  config.grid.refs_per_level = 4;
  config.gossip.fanout_fraction = 0.2;
  config.gossip.forward_probability = analysis::pf_geometric(0.9);
  config.gossip.pull.no_update_timeout = 6;
  pgrid::ReplicatedIndex index(config);
  common::StreamRng rng(2026);

  std::cout << "updp2p index shell — " << index.population() << " peers, "
            << (1 << config.grid.depth) << " partitions (type 'help')\n";

  std::string line;
  bool interactive = false;
  while (std::cout << "updp2p> " << std::flush, std::getline(std::cin, line)) {
    interactive = true;
    if (!execute(index, rng, line)) break;
  }

  if (!interactive) {
    // No stdin: run a short scripted demo.
    std::cout << "(no input — running scripted demo)\n";
    for (const char* demo : {
             "put users/alice profile-v1", "step 10", "get users/alice",
             "churn 0.3", "put users/alice profile-v2", "step 10",
             "churn 1.0", "step 15", "get users/alice", "del users/alice",
             "step 10", "get users/alice", "stats"}) {
      std::cout << "updp2p> " << demo << "\n";
      (void)execute(index, rng, demo);
    }
  }
  return 0;
}

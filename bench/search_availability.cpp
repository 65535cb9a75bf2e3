// Reproduces the §2 motivation arithmetic and exercises the P-Grid
// substrate under low availability.
//
// Paper §2: "if we need a 99.9% success guarantee for a search and only 10%
// of the replicas are online on average, then a serial search will need
// about 65 attempts (since 0.9^65 ≈ 0.001)" — the replication-factor
// back-of-envelope that motivates hundreds-to-thousands of replicas.
#include <cmath>
#include <iostream>

#include "analysis/flooding_model.hpp"
#include "bench_util.hpp"
#include "churn/churn_model.hpp"
#include "common/rng.hpp"
#include "pgrid/pgrid.hpp"

using namespace updp2p;

namespace {

void serial_attempts_section() {
  common::TextTable table(
      "serial attempts for a 99.9% search success (paper's replication "
      "motivation)");
  table.header({"online probability", "attempts (analytic)",
                "expected attempts to reach 1 online (E_x, R=1000)"});
  for (const double p_online : {0.05, 0.10, 0.20, 0.30}) {
    const double attempts =
        std::ceil(std::log(0.001) / std::log(1.0 - p_online));
    table.row()
        .cell(p_online, 2)
        .cell(attempts, 0)
        .cell(analysis::expected_attempts_to_reach(1.0, 1'000, p_online), 2);
  }
  table.print(std::cout);
  std::cout << "  paper: ~65 attempts at 10% online for 99.9% success.\n";
}

void pgrid_section() {
  common::TextTable table(
      "P-Grid search under churn (1024 peers, depth 4, 5 refs/level, "
      "500 queries)");
  table.header({"availability", "success (1 try)", "success (<=10 tries)",
                "mean hops", "mean probes"});

  for (const double availability : {1.0, 0.5, 0.3, 0.1}) {
    pgrid::PGridConfig config;
    config.peers = 1'024;
    config.depth = 4;
    config.refs_per_level = 5;
    const auto network = pgrid::PGridNetwork::build(config);

    common::StreamRng rng(0xabcd);
    churn::BernoulliChurn churn(config.peers, availability, 1.0, 0.0);
    churn.reset(rng);
    const auto is_online = [&churn](common::PeerId peer) {
      return churn.is_online(peer);
    };

    std::size_t single = 0;
    std::size_t retried = 0;
    common::RunningStats hops;
    common::RunningStats probes;
    constexpr std::size_t kQueries = 500;
    for (std::size_t q = 0; q < kQueries; ++q) {
      // Random online origin, random key.
      const auto online_peers = churn.online().online_peers();
      const common::PeerId origin =
          online_peers[rng.pick_index(online_peers.size())];
      const auto key = pgrid::BitPath::from_key(
          "key-" + std::to_string(q), 64);
      const auto one = network.search(origin, key, is_online, rng);
      if (one.found) ++single;
      const auto many =
          network.search_with_retries(origin, key, is_online, rng, 10);
      if (many.found) ++retried;
      hops.add(static_cast<double>(many.hops));
      probes.add(static_cast<double>(many.attempts));
    }
    table.row()
        .cell(availability, 2)
        .cell(static_cast<double>(single) / kQueries, 3)
        .cell(static_cast<double>(retried) / kQueries, 3)
        .cell(hops.mean(), 2)
        .cell(probes.mean(), 2);
  }
  table.print(std::cout);
  std::cout << "  probabilistic search guarantees (paper §2 assumption):\n"
            << "  retries trade messages for success probability.\n";
}

}  // namespace

int main() {
  bench::print_banner("Search under low availability — §2 motivation + "
                      "P-Grid substrate",
                      "Why replica groups of hundreds exist at all");
  serial_attempts_section();
  pgrid_section();
  return 0;
}

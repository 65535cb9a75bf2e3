// Quickstart: propagate one update through a replica group of mostly
// offline peers with the hybrid push/pull protocol, and read it back.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "analysis/forward_probability.hpp"
#include "common/table.hpp"
#include "net/inproc_transport.hpp"
#include "runtime/peer_runtime.hpp"
#include "sim/round_simulator.hpp"

using namespace updp2p;

int main() {
  // 1. Configure the gossip protocol: a replica group provisioned for 500
  //    replicas, fanout fraction f_r = 4% (each push contacts ~20 peers),
  //    decaying forward probability PF(t) = 0.9^t, and partial flooding
  //    lists for duplicate suppression.
  gossip::GossipConfig gossip_config;
  gossip_config.estimated_total_replicas = 500;
  gossip_config.fanout_fraction = 0.04;
  gossip_config.forward_probability = analysis::pf_geometric(0.9);
  gossip_config.partial_list.mode = gossip::PartialListMode::kUnbounded;

  // 2. Host the replica group in the round-based simulator: 500 peers,
  //    20% online at any time, online peers staying per round w.p. 0.98.
  sim::RoundSimConfig sim_config;
  sim_config.population = 500;
  sim_config.gossip = gossip_config;
  sim_config.seed = 2026;
  auto churn = std::make_unique<churn::BernoulliChurn>(
      sim_config.population, /*initial_online_fraction=*/0.20,
      /*sigma=*/0.98, /*p_join=*/0.002);
  sim::RoundSimulator simulator(std::move(sim_config), std::move(churn));

  // 3. Publish an update from a random online peer. The push phase floods
  //    it to the online population; peers coming online later pull it.
  const auto metrics = simulator.propagate_update(
      std::nullopt, "greeting", "hello, unreliable world");

  std::cout << "population:                " << metrics.population << "\n"
            << "online at publish time:    " << metrics.initial_online << "\n"
            << "push messages sent:        " << metrics.total_push_messages()
            << " (" << common::format_double(
                           metrics.messages_per_initial_online(), 2)
            << " per initially-online peer)\n"
            << "pull messages sent:        " << metrics.total_pull_messages()
            << "\n"
            << "online peers aware:        "
            << common::format_double(100.0 * metrics.final_aware_fraction(), 1)
            << "%\n"
            << "push rounds used:          " << metrics.rounds_to_quiescence()
            << "\n";

  // 4. Read the value back from an arbitrary peer that is online now.
  for (std::uint32_t i = 0; i < simulator.population(); ++i) {
    const common::PeerId peer(i);
    if (!simulator.churn().is_online(peer)) continue;
    if (const auto value = simulator.node(peer).read("greeting")) {
      std::cout << "peer " << i << " reads: \"" << value->payload << "\" "
                << "(version " << value->id.to_string().substr(0, 8)
                << "..., history " << value->history.to_string() << ")\n";
      break;
    }
  }

  // 5. Live mode: the same ReplicaNode type behind a real event loop.
  //    Two PeerRuntimes (codec, timer queue, retry/backoff) exchange
  //    datagrams through the deterministic in-process transport; swap
  //    InprocNetwork::attach for net::UdpTransport::open and the identical
  //    code runs over sockets (see examples/peerd.cpp).
  net::InprocNetworkConfig net_config;
  net_config.seed = 13;  // this seed drops the first push: one retransmit,
                         // then the ack lands and cancels the retry
  net_config.loss_probability = 0.2;
  net::InprocNetwork network(net_config);
  auto transport_a = network.attach(common::PeerId(0));
  auto transport_b = network.attach(common::PeerId(1));

  runtime::RuntimeConfig runtime_config;
  runtime_config.gossip.estimated_total_replicas = 2;
  runtime_config.gossip.fanout_fraction = 1.0;
  runtime_config.gossip.acks.enabled = true;  // acks make pushes retryable
  runtime_config.retry.initial_timeout = 0.2;
  runtime_config.round_duration = 0.5;

  runtime::PeerRuntime alice(runtime_config, *transport_a);
  runtime::PeerRuntime bob(runtime_config, *transport_b);
  const common::PeerId knows_bob[] = {common::PeerId(1)};
  const common::PeerId knows_alice[] = {common::PeerId(0)};
  alice.bootstrap(knows_bob);
  bob.bootstrap(knows_alice);

  const auto live_id = alice.publish("greeting", "hello over the wire");
  common::SimTime settle_until = 30.0;  // keep polling briefly past
  for (common::SimTime now = 0.0;      // convergence so the ack lands
       now < settle_until; now += 0.05) {
    network.advance_to(now);  // deliver due datagrams (loss, latency)
    alice.poll(now);          // drain + fire retry/round timers
    bob.poll(now);
    if (bob.read("greeting") && settle_until > now + 1.0)
      settle_until = now + 1.0;
  }

  if (const auto value = bob.read("greeting"); value && live_id) {
    std::cout << "live: bob reads \"" << value->payload << "\" after "
              << alice.stats().retransmits << " retransmit(s), "
              << alice.stats().retries_cancelled << " retry cancelled by ack\n";
  }
  return 0;
}

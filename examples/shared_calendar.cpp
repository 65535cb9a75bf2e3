// Shared calendar — one of the paper's motivating applications (§1:
// "bulletin-board systems, shared calendars or address books").
//
// A team of mostly-offline peers replicates a calendar. Members add and
// edit entries over continuous time while churning on and off; concurrent
// edits to the same slot coexist as versions (paper §3) and queries resolve
// them with the §4.4 rules. Demonstrates the continuous-time loopback
// cluster, the pull phase, tombstoned deletions, and multi-replica query
// resolution.
#include <iostream>

#include "analysis/forward_probability.hpp"
#include "runtime/loopback_cluster.hpp"

using namespace updp2p;

namespace {

void show(const char* when, const std::optional<version::VersionedValue>& v) {
  std::cout << "  " << when << ": ";
  if (!v.has_value()) {
    std::cout << "(no entry)\n";
  } else {
    std::cout << '"' << v->payload << "\" [history " << v->history.to_string()
              << "]\n";
  }
}

common::PeerId peer_id(std::size_t index) {
  return common::PeerId(static_cast<std::uint32_t>(index));
}

}  // namespace

int main() {
  runtime::LoopbackClusterConfig config;
  config.population = 120;                 // team + their devices
  config.sessions.emplace(40.0, 120.0);    // minutes-scale sessions, 25%
  config.network.latency = std::make_shared<net::ConstantLatency>(0.5);
  config.runtime.round_duration = 1.0;
  config.runtime.retry.max_attempts = 1;   // no retransmission layer
  config.runtime.gossip.estimated_total_replicas = config.population;
  // Small replica groups at low availability are near-critical (the Fig 1a
  // lesson): provision a generous fanout so pushes reliably take off.
  config.runtime.gossip.fanout_fraction = 0.15;
  config.runtime.gossip.forward_probability = analysis::pf_geometric(0.95);
  // Eager §3 pull: reconnecting devices reconcile immediately, so reads are
  // fresh even between sparse updates. The §6 lazy variant saves pull
  // traffic at a freshness cost — quantified in bench/pull_phase.
  config.runtime.gossip.pull.lazy = false;
  config.runtime.gossip.pull.contacts_per_attempt = 3;
  config.runtime.gossip.pull.no_update_timeout = 40;
  config.runtime.gossip.acks.enabled = true;  // §6 ack optimisation
  config.runtime.gossip.acks.suppression_rounds = 8;
  config.runtime.seed = 7;
  runtime::LoopbackCluster calendar(config);

  // A user writes from whichever device is online (preferably a synced one).
  const auto write = [&calendar](std::string_view key, std::string entry) {
    if (const auto writer = calendar.pick_writer()) {
      calendar.publish(*writer, key, std::move(entry));
    }
  };

  std::cout << "== shared calendar over " << config.population
            << " mostly-offline peers ==\n";

  // Alice books the meeting room.
  calendar.run_until(5.0);
  write("fri-10am", "standup (booked by alice)");
  calendar.run_until(40.0);
  show("t=40, after alice's booking",
       calendar.query("fri-10am", 3, gossip::QueryRule::kLatestVersion));

  // Bob reschedules it — a causally newer version.
  calendar.run_until(45.0);
  write("fri-10am", "standup moved to 10:30 (bob)");
  calendar.run_until(90.0);
  show("t=90, after bob's edit",
       calendar.query("fri-10am", 3, gossip::QueryRule::kLatestVersion));

  // Carol and Dave edit *concurrently* from two devices online right now:
  // both versions will coexist until a query resolves them (§3, §4.4).
  // (Written within one network latency of each other, so neither writer
  // can have seen the other's version: guaranteed concurrent.)
  calendar.run_until(95.0);
  std::vector<common::PeerId> online;
  for (std::size_t i = 0; i < calendar.population(); ++i) {
    if (calendar.peer(peer_id(i)).online()) online.push_back(peer_id(i));
  }
  if (online.size() >= 2) {
    calendar.publish(online.front(), "fri-2pm", "design review (carol)");
    calendar.run_until(95.01);
    calendar.publish(online.back(), "fri-2pm", "1:1 with dave");
  }
  calendar.run_until(160.0);
  show("t=160, latest-version rule",
       calendar.query("fri-2pm", 10, gossip::QueryRule::kLatestVersion));
  show("t=160, majority rule",
       calendar.query("fri-2pm", 10, gossip::QueryRule::kMajority));
  show("t=160, hybrid rule",
       calendar.query("fri-2pm", 10, gossip::QueryRule::kHybrid));

  // Count how many replicas hold both concurrent versions.
  std::size_t with_conflict = 0;
  for (std::size_t i = 0; i < calendar.population(); ++i) {
    if (calendar.peer(peer_id(i)).node().store().versions("fri-2pm").size() >
        1) {
      ++with_conflict;
    }
  }
  std::cout << "  replicas holding both concurrent fri-2pm versions: "
            << with_conflict << "\n";

  // The standup is cancelled: a tombstone (death certificate) propagates
  // exactly like an update. We let the network converge first so the
  // canceller has seen bob's edit — a *stale* canceller would produce a
  // tombstone concurrent with the edit, and the deterministic §4.4 rule
  // would have to arbitrate (eventual-consistency semantics, not a bug).
  calendar.run_until(280.0);
  if (const auto canceller = calendar.pick_writer()) {
    calendar.peer(*canceller).remove("fri-10am");
  }
  std::cout << "  fri-10am cancelled at t=280 (tombstone pushed)\n";
  calendar.run_until(500.0);
  show("t=500, after cancellation",
       calendar.query("fri-10am", 5, gossip::QueryRule::kLatestVersion));

  std::uint64_t push = 0, pull = 0, ack = 0;
  for (std::size_t i = 0; i < calendar.population(); ++i) {
    const gossip::NodeStats& stats = calendar.peer(peer_id(i)).node().stats();
    push += stats.pushes_forwarded;
    pull += stats.pull_requests_sent + stats.pull_requests_received;
    ack += stats.acks_sent;
  }
  std::cout << "\nprotocol totals: " << push << " push, " << pull
            << " pull, " << ack << " ack messages over "
            << calendar.reconnects() << " reconnects\n";
  return 0;
}

#include "chaos/scenarios.hpp"

#include "common/ensure.hpp"

namespace updp2p::chaos {

namespace {

/// Fault schedules over small clusters (8-12 peers; every script keeps
/// rounds short so the whole corpus runs in well under a second of wall
/// time per seed). Durations are in virtual seconds.
constexpr std::string_view kScripts[] = {
    // The paper's headline regime: a clean split while an update floods,
    // a second update born inside the minority side, then heal. Both
    // sides converge through the no-update-timeout pull.
    R"(name partition-heal
population 10
round 0.25
phase 1
  publish 0 alpha
phase 1
  partition 0-4 | 5-9
  publish 5 beta
phase 3
  publish 1 gamma
phase 15
  heal
)",

    // Heavily lossy in one direction only: §6 acks + capped-backoff
    // retries must push updates across the bad direction anyway.
    R"(name asymmetric-loss
population 8
round 0.25
phase 1
  linkloss 0-3 4-7 0.6
  publish 0 alpha
phase 4
  publish 2 beta
phase 15
  heal
)",

    // Duplicate and reorder windows: duplicate-tolerant receipt and
    // version-vector ordering must keep state exact.
    R"(name duplicate-reorder
population 8
round 0.25
phase 1
  dup 0.3
  reorder 0.3 0.4
  publish 0 alpha
phase 3
  publish 4 beta
  publish 6 gamma
phase 15
  heal
)",

    // Churn burst: half the cluster offline through two publishes, then
    // back; reconnect pulls (§3) recover the missed updates.
    R"(name churn-burst
population 10
round 0.25
phase 1
  offline 5-9
  publish 0 alpha
phase 2
  publish 3 beta
phase 1
  online 5-9
phase 20
  heal
)",

    // Overwrite while offline: peers 5-9 miss alpha and then peer 3's
    // overwrite of it. Pull ships only the dominating version, so the
    // returning peers never hold the first alpha; eventual delivery must
    // accept the version that supersedes it.
    R"(name overwrite-while-offline
population 10
round 0.25
phase 1
  offline 5-9
  publish 0 alpha
phase 2
  publish 3 alpha
phase 1
  online 5-9
phase 20
  heal
)",

    // Skewed clocks: fast and slow peers tick rounds at 2x and 0.5x;
    // convergence must not depend on synchronized round boundaries.
    R"(name clock-skew
population 8
round 0.25
phase 1
  skew 2-3 2
  skew 4-5 0.5
  publish 0 alpha
phase 4
  publish 6 beta
phase 15
  heal
  skew 2-5 1
)",

    // Kill/restart with stores intact: the restarted peers must recover
    // exactly the digest they died with (append-before-ack).
    R"(name kill-restart-durable
population 8
durable 0-3
round 0.25
phase 2
  publish 0 alpha
  publish 1 beta
phase 2
  kill 1-2
  publish 0 gamma
phase 1
  restart 1-2
phase 15
  heal
)",

    // Wiped restart: peer 1 comes back empty and must refill everything
    // through the pull phase, like a fresh §2 joiner.
    R"(name kill-restart-wiped
population 8
durable 0-3
round 0.25
phase 2
  publish 0 alpha
  publish 2 beta
phase 2
  kill 1 wipe
phase 1
  restart 1
phase 15
  heal
)",

    // Broken WAL: appends fail on peer 1, which degrades to volatile but
    // keeps gossiping; once the disk heals the protocol never noticed.
    R"(name disk-fault-appends
population 8
durable 0-3
round 0.25
phase 1
  disk-fault 1 appends
  publish 0 alpha
phase 2
  publish 1 beta
  disk-ok 1
phase 15
  heal
)",

    // Crash in the snapshot/truncate window: the snapshot lands, the
    // stale log survives, the process dies on the spot. Recovery stands
    // on the snapshot, discards the stale tail, and pulls the rest.
    R"(name crash-during-snapshot
population 8
durable 0-1
round 0.25
snapshot-every 1000
phase 2
  publish 0 alpha
  publish 1 beta
phase 1
  disk-fault 0 torn
  snapshot 0
  kill 0
phase 1
  disk-ok 0
  restart 0
phase 15
  heal
)",

    // Everything at once: partition + loss + duplication + churn + a
    // durable crash, then a long healed settle.
    R"(name combined-storm
population 12
durable 0-3
round 0.25
loss 0.05
phase 1
  publish 0 alpha
phase 2
  partition 0-5 | 6-11
  dup 0.2
  publish 6 beta
phase 2
  offline 4-5
  kill 2
  publish 0 gamma
phase 1
  heal
  online 4-5
  restart 2
phase 15
  heal
)",

    // Canary baseline: peers 6-9 miss two publishes while offline and
    // recover purely through the pull phase. Passes clean as-is; under
    // the drop-pull-responses mutation recovery is impossible and the
    // eventual-delivery check MUST fire — proving the checker has teeth.
    R"(name canary-pull-recovery
population 10
round 0.25
phase 1
  offline 6-9
  publish 0 alpha
phase 2
  publish 3 beta
phase 1
  online 6-9
phase 15
  heal
)",
};

}  // namespace

std::vector<Scenario> builtin_scenarios() {
  std::vector<Scenario> scenarios;
  scenarios.reserve(std::size(kScripts));
  for (const std::string_view script : kScripts) {
    std::string error;
    auto scenario = parse_scenario(script, &error);
    UPDP2P_ENSURE(scenario.has_value(),
                  ("builtin chaos scenario failed to parse: " + error).c_str());
    scenarios.push_back(std::move(*scenario));
  }
  return scenarios;
}

std::optional<Scenario> find_scenario(std::string_view name) {
  for (Scenario& scenario : builtin_scenarios()) {
    if (scenario.name == name) return std::move(scenario);
  }
  return std::nullopt;
}

}  // namespace updp2p::chaos

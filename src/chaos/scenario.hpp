// Chaos scenario scripts — a tiny line-oriented DSL for fault schedules.
//
// A scenario is a cluster header (population, durable peers, protocol
// knobs) followed by phases. Each phase applies its ops at the phase start
// (back-to-back, with no time elapsing between them) and then runs the
// virtual-time cluster for the phase duration. Ops cover the adversarial
// regimes the paper's model implies but the uniform-loss harnesses never
// exercise: partitions, asymmetric per-direction loss/latency, duplicate
// and reorder windows, churn bursts, clock skew, kill/restart with the
// store intact or wiped, and disk faults at the WAL/snapshot write points.
//
// The format round-trips: parse_scenario(to_text(s)) reproduces `s`
// exactly, which is what lets the schedule shrinker emit its minimized
// script as a runnable repro file.
//
// Example:
//
//   # split the cluster while an update is being pushed
//   population 12
//   durable 0-3
//   round 0.5
//   phase 2
//     publish 0 config
//     partition 0-5 | 6-11
//   phase 6
//     heal
//
// Peer sets are `*` (everyone) or comma lists of ids and ranges
// (`1,3,7-9`). Unlisted peers in a `partition` form one implicit extra
// group. Times are seconds of virtual time, probabilities are in [0,1].
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace updp2p::chaos {

enum class OpKind : std::uint8_t {
  kPartition,  ///< partition <set> | <set> [| ...]
  kHeal,       ///< heal — clears partition/link overrides/dup/reorder
  kLinkLoss,   ///< linkloss <src-set> <dst-set> <p>   (directional)
  kLinkDelay,  ///< linkdelay <src-set> <dst-set> <seconds> (directional)
  kDuplicate,  ///< dup <p> — per-datagram duplication probability
  kReorder,    ///< reorder <p> <max-extra-seconds>
  kOffline,    ///< offline <set> — protocol-level disconnect (§3)
  kOnline,     ///< online <set>
  kSkew,       ///< skew <set> <factor> — peer clocks run at factor × real
  kKill,       ///< kill <set> [wipe] — destroy runtime (+ store files on wipe)
  kRestart,    ///< restart <set> — new runtime over the surviving store
  kDiskFault,  ///< disk-fault <set> appends|snapshots|torn|all
  kDiskOk,     ///< disk-ok <set>
  kSnapshot,   ///< snapshot <set> — force a snapshot now
  kPublish,    ///< publish <peer> <key>
};

[[nodiscard]] const char* to_string(OpKind kind) noexcept;

/// Which store write point a disk-fault op breaks (store::StoreFaults).
enum class DiskFaultMode : std::uint8_t {
  kAppends,    ///< WAL appends fail (peer degrades to volatile)
  kSnapshots,  ///< snapshot writes fail outright
  kTorn,       ///< snapshot lands but log truncation "crashes"
  kAll,        ///< appends + snapshots
};

struct Op {
  OpKind kind = OpKind::kHeal;
  /// kPartition: explicit groups (unlisted peers form one implicit group).
  std::vector<std::vector<common::PeerId>> groups;
  /// Subject peers (offline/online/skew/kill/restart/disk/snapshot), or
  /// the source set of a link op.
  std::vector<common::PeerId> peers;
  /// Destination set of a link op.
  std::vector<common::PeerId> dst;
  double a = 0.0;  ///< loss/dup/reorder probability, delay seconds, skew factor
  double b = 0.0;  ///< reorder: max extra delay seconds
  bool wipe = false;                           ///< kKill
  DiskFaultMode disk = DiskFaultMode::kAll;    ///< kDiskFault
  common::PeerId peer;                         ///< kPublish
  std::string key;                             ///< kPublish

  friend bool operator==(const Op&, const Op&) = default;
};

struct Phase {
  common::SimTime duration = 1.0;
  std::vector<Op> ops;

  friend bool operator==(const Phase&, const Phase&) = default;
};

struct Scenario {
  std::string name = "scenario";
  std::size_t population = 8;
  /// Peers that run a durable ReplicaStore (engine callers must supply a
  /// data root when non-empty).
  std::vector<common::PeerId> durable;
  common::SimTime round = 0.5;        ///< push-round duration
  common::SimTime tick = 0.05;        ///< timer-queue tick
  double base_loss = 0.0;             ///< uniform network loss under the faults
  common::SimTime latency_lo = 0.05;  ///< uniform one-way delay bounds;
  common::SimTime latency_hi = 0.05;  ///< equal bounds = constant latency
  double fanout = 0.3;                ///< gossip fanout fraction f_r
  bool acks = true;                   ///< §6 acks (and push retries)
  unsigned retry_attempts = 4;
  common::SimTime retry_initial = 0.2;
  std::uint64_t snapshot_every = 64;  ///< store count trigger
  /// Bootstrap view size per peer (0 = full membership).
  std::size_t view = 0;
  std::vector<Phase> phases;

  [[nodiscard]] common::SimTime total_duration() const noexcept {
    common::SimTime total = 0.0;
    for (const Phase& phase : phases) total += phase.duration;
    return total;
  }
  [[nodiscard]] bool is_durable(common::PeerId id) const noexcept {
    for (const common::PeerId peer : durable) {
      if (peer == id) return true;
    }
    return false;
  }

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

/// Parses a scenario script. On failure returns nullopt and, when `error`
/// is non-null, a "line N: reason" message. Validates peer ids against the
/// population, probability/duration ranges and partition disjointness.
[[nodiscard]] std::optional<Scenario> parse_scenario(std::string_view text,
                                                     std::string* error);

/// Serialises a scenario back to script text. Round-trip exact:
/// parse_scenario(to_text(s)) == s for any parser-accepted `s`.
[[nodiscard]] std::string to_text(const Scenario& scenario);

}  // namespace updp2p::chaos

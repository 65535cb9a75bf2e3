// Monotonic hashed timer wheel.
//
// PeerRuntime needs many short-lived timers (one per in-flight retransmit,
// plus the round cadence) with cheap schedule/cancel. A hashed wheel fits:
// time is quantised into ticks, each tick hashes to one of `slot_count`
// slots, and timers whose deadline lies more than one wheel revolution out
// simply stay in their slot until the wheel comes around to their tick
// (deadline ticks are stored absolutely, so no cascade pass is needed).
//
// Beside the slots, a min-heap of (deadline tick, id) answers "when is the
// next timer due" without a scan; schedule pays an O(log n) push for it.
// It is pruned lazily: cancel leaves the entry behind, next_deadline pops
// tops whose timer is no longer pending, and advance pops tops whose tick
// has passed.
//
// Determinism contract: timers fire in (deadline tick, schedule order), and
// time only moves forward (advance enforces monotonicity). A deadline in
// the past fires on the next advance. Callbacks may schedule and cancel
// timers freely — timers scheduled for ticks the current advance has not
// passed yet fire within the same advance call.
//
// Not thread-safe, next_deadline included: it is const but prunes the heap.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace updp2p::runtime {

class TimerWheel {
 public:
  using TimerId = std::uint64_t;
  /// Never returned by schedule_*; safe "no timer" sentinel for callers.
  static constexpr TimerId kInvalidTimer = 0;
  using Callback = std::function<void(common::SimTime now)>;

  explicit TimerWheel(common::SimTime tick_duration = 0.05,
                      std::size_t slot_count = 256);

  /// Schedules `callback` to fire at virtual time `deadline` (or on the
  /// next advance if the deadline already passed).
  [[nodiscard]] TimerId schedule_at(common::SimTime deadline,
                                    Callback callback);
  /// Schedules relative to the wheel's current time.
  [[nodiscard]] TimerId schedule_after(common::SimTime delay,
                                       Callback callback);

  /// Cancels a pending timer; returns false when the id is unknown,
  /// already fired, or already cancelled.
  bool cancel(TimerId id);

  /// Advances virtual time to `now` (monotone), firing every due timer in
  /// (deadline tick, schedule order).
  void advance(common::SimTime now);

  [[nodiscard]] common::SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_.size(); }
  /// Earliest pending fire time (tick-quantised); nullopt when idle.
  /// Amortised O(1): it reads the heap's top after popping the cancelled
  /// timers found there (O(log n) each, and an entry is popped only once).
  /// The heap holds one entry per timer that is scheduled and whose tick
  /// has not yet passed, cancelled ones included.
  [[nodiscard]] std::optional<common::SimTime> next_deadline() const;

 private:
  struct Entry {
    TimerId id = kInvalidTimer;
    std::uint64_t deadline_tick = 0;
    Callback callback;
  };
  struct Deadline {
    std::uint64_t tick = 0;
    TimerId id = kInvalidTimer;
    /// Orders std::*_heap as a min-heap on tick.
    bool operator<(const Deadline& other) const noexcept {
      return tick > other.tick;
    }
  };

  [[nodiscard]] std::uint64_t tick_ceil(common::SimTime at) const noexcept;

  common::SimTime tick_duration_;
  std::vector<std::vector<Entry>> slots_;
  /// Pending timers: id -> absolute deadline tick. Source of truth for
  /// liveness (cancel is a lazy erase here; slots purge on sweep).
  std::unordered_map<TimerId, std::uint64_t> live_;
  /// Min-heap by tick with an entry for every live timer, plus stale ones
  /// that next_deadline and advance prune from the top (hence mutable).
  mutable std::vector<Deadline> deadlines_;
  std::uint64_t current_tick_ = 0;  ///< all ticks <= this have fired
  common::SimTime now_ = 0.0;
  TimerId next_id_ = 1;
  std::vector<Entry> due_scratch_;  ///< reused per-tick fire buffer
  bool advancing_scratch_in_use_ = false;  ///< reentrancy guard for advance
};

}  // namespace updp2p::runtime

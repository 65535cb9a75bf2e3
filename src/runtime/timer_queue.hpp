// Monotonic timer queue.
//
// PeerRuntime needs short-lived timers (one per in-flight retransmit, plus
// the round cadence and the snapshot interval) with cheap schedule/cancel
// and an exact "when is the next one due" for its event loop. A peer has at
// most a few hundred pending, so one ordered map holds them all: time is
// quantised into ticks, and a timer's key, TimerId{deadline tick, schedule
// sequence}, is both its id and its place in the fire order. cancel is one
// erase that frees the callback at once, next_deadline reads the first key,
// and advance pops due keys from the front.
//
// Determinism contract: timers fire in (deadline tick, schedule order), and
// time only moves forward (advance enforces monotonicity). A deadline at or
// before the current tick fires on the next advance. Callbacks may schedule
// and cancel timers freely — timers scheduled for ticks the current advance
// has not passed yet fire within the same advance call.
//
// Not thread-safe: runtime, transport and queue share one event loop.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "common/types.hpp"

namespace updp2p::runtime {

/// A pending timer's id and its place in the fire order. Sequences start
/// at 1, so the default value is never issued.
struct TimerId {
  std::uint64_t tick = 0;      ///< deadline, in ticks
  std::uint64_t sequence = 0;  ///< schedule order
  friend auto operator<=>(const TimerId&, const TimerId&) = default;
};

class TimerQueue {
 public:
  using TimerId = runtime::TimerId;
  /// Never returned by schedule_*; safe "no timer" sentinel for callers.
  static constexpr TimerId kInvalidTimer{};
  using Callback = std::function<void(common::SimTime now)>;

  explicit TimerQueue(common::SimTime tick_duration = 0.05);

  /// Schedules `callback` to fire at virtual time `deadline` (or on the
  /// next advance if the deadline already passed).
  [[nodiscard]] TimerId schedule_at(common::SimTime deadline,
                                    Callback callback);
  /// Schedules relative to the queue's current time.
  [[nodiscard]] TimerId schedule_after(common::SimTime delay,
                                       Callback callback);

  /// Cancels a pending timer and releases its callback; returns false when
  /// the id is unknown, already fired, or already cancelled.
  bool cancel(TimerId id) { return timers_.erase(id) > 0; }

  /// Advances virtual time to `now` (monotone), firing every due timer in
  /// (deadline tick, schedule order) with `now` = its tick × tick duration.
  void advance(common::SimTime now);

  [[nodiscard]] common::SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return timers_.size(); }
  /// Earliest pending fire time (tick-quantised); nullopt when idle.
  [[nodiscard]] std::optional<common::SimTime> next_deadline() const {
    if (timers_.empty()) return std::nullopt;
    return static_cast<common::SimTime>(timers_.begin()->first.tick) *
           tick_duration_;
  }

 private:
  [[nodiscard]] std::uint64_t tick_ceil(common::SimTime at) const noexcept;

  common::SimTime tick_duration_;
  std::map<TimerId, Callback> timers_;
  std::uint64_t current_tick_ = 0;  ///< all ticks <= this have fired
  common::SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 1;
  bool advancing_ = false;  ///< reentrancy guard for advance
};

}  // namespace updp2p::runtime

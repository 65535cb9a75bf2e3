#include "runtime/timer_queue.hpp"

#include <cmath>

#include "common/ensure.hpp"

namespace updp2p::runtime {

TimerQueue::TimerQueue(common::SimTime tick_duration)
    : tick_duration_(tick_duration) {
  UPDP2P_ENSURE(tick_duration > 0.0, "tick duration must be positive");
}

std::uint64_t TimerQueue::tick_ceil(common::SimTime at) const noexcept {
  std::uint64_t tick = 0;
  if (at > 0.0) {
    tick = static_cast<std::uint64_t>(std::ceil(at / tick_duration_));
  }
  // A deadline at or before the current tick fires on the next advance:
  // timers never fire inside schedule_*, only inside advance.
  return tick <= current_tick_ ? current_tick_ + 1 : tick;
}

TimerQueue::TimerId TimerQueue::schedule_at(common::SimTime deadline,
                                            Callback callback) {
  UPDP2P_ENSURE(static_cast<bool>(callback), "timer callback must be set");
  const TimerId id{tick_ceil(deadline), next_sequence_++};
  timers_.emplace(id, std::move(callback));
  return id;
}

TimerQueue::TimerId TimerQueue::schedule_after(common::SimTime delay,
                                               Callback callback) {
  UPDP2P_ENSURE(delay >= 0.0, "timer delay must be non-negative");
  return schedule_at(now_ + delay, std::move(callback));
}

void TimerQueue::advance(common::SimTime now) {
  UPDP2P_ENSURE(now >= now_, "timer queue time must be monotone");
  UPDP2P_ENSURE(!advancing_, "advance must not be reentered");
  advancing_ = true;
  now_ = now;
  const auto target_tick = static_cast<std::uint64_t>(now / tick_duration_);
  while (!timers_.empty() && timers_.begin()->first.tick <= target_tick) {
    // Out of the map before it runs: the callback may cancel (a no-op on
    // itself) or schedule, and a child lands after the current tick.
    auto due = timers_.extract(timers_.begin());
    current_tick_ = due.key().tick;
    due.mapped()(static_cast<common::SimTime>(current_tick_) * tick_duration_);
  }
  current_tick_ = target_tick;
  advancing_ = false;
}

}  // namespace updp2p::runtime

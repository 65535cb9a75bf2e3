#include "runtime/timer_wheel.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"

namespace updp2p::runtime {

TimerWheel::TimerWheel(common::SimTime tick_duration, std::size_t slot_count)
    : tick_duration_(tick_duration),
      slots_(slot_count == 0 ? 1 : slot_count) {
  UPDP2P_ENSURE(tick_duration > 0.0, "tick duration must be positive");
}

std::uint64_t TimerWheel::tick_ceil(common::SimTime at) const noexcept {
  std::uint64_t tick = 0;
  if (at > 0.0) {
    tick = static_cast<std::uint64_t>(std::ceil(at / tick_duration_));
  }
  // A deadline at or before the current tick fires on the next advance:
  // timers never fire inside schedule_*, only inside advance.
  return tick <= current_tick_ ? current_tick_ + 1 : tick;
}

TimerWheel::TimerId TimerWheel::schedule_at(common::SimTime deadline,
                                            Callback callback) {
  UPDP2P_ENSURE(static_cast<bool>(callback), "timer callback must be set");
  const std::uint64_t tick = tick_ceil(deadline);
  const TimerId id = next_id_++;
  slots_[tick % slots_.size()].push_back(Entry{id, tick, std::move(callback)});
  live_.emplace(id, tick);
  deadlines_.push_back(Deadline{tick, id});
  std::push_heap(deadlines_.begin(), deadlines_.end());
  return id;
}

TimerWheel::TimerId TimerWheel::schedule_after(common::SimTime delay,
                                               Callback callback) {
  UPDP2P_ENSURE(delay >= 0.0, "timer delay must be non-negative");
  return schedule_at(now_ + delay, std::move(callback));
}

bool TimerWheel::cancel(TimerId id) { return live_.erase(id) > 0; }

void TimerWheel::advance(common::SimTime now) {
  UPDP2P_ENSURE(now >= now_, "timer wheel time must be monotone");
  UPDP2P_ENSURE(!advancing_scratch_in_use_, "advance must not be reentered");
  advancing_scratch_in_use_ = true;
  now_ = now;
  const auto target_tick =
      static_cast<std::uint64_t>(now / tick_duration_);
  while (current_tick_ < target_tick) {
    ++current_tick_;
    std::vector<Entry>& slot = slots_[current_tick_ % slots_.size()];
    due_scratch_.clear();
    std::size_t kept = 0;
    for (Entry& entry : slot) {
      const auto it = live_.find(entry.id);
      if (it == live_.end()) continue;  // cancelled; purge lazily
      if (entry.deadline_tick != current_tick_) {
        // A later revolution of the wheel; keep in place (absolute ticks
        // make cascading unnecessary).
        slot[kept++] = std::move(entry);
        continue;
      }
      due_scratch_.push_back(std::move(entry));
    }
    slot.resize(kept);
    const common::SimTime tick_time =
        static_cast<common::SimTime>(current_tick_) * tick_duration_;
    for (Entry& entry : due_scratch_) {
      // A due sibling fired earlier this tick may have cancelled us; the
      // live_ erase doubles as the fire-once guard.
      if (live_.erase(entry.id) == 0) continue;
      entry.callback(tick_time);
    }
  }
  // Every timer due by now has fired or was cancelled.
  while (!deadlines_.empty() && deadlines_.front().tick <= current_tick_) {
    std::pop_heap(deadlines_.begin(), deadlines_.end());
    deadlines_.pop_back();
  }
  advancing_scratch_in_use_ = false;
}

std::optional<common::SimTime> TimerWheel::next_deadline() const {
  if (live_.empty()) return std::nullopt;
  // Live timers are all in the heap, so the first live top is the minimum.
  while (!live_.contains(deadlines_.front().id)) {
    std::pop_heap(deadlines_.begin(), deadlines_.end());
    deadlines_.pop_back();
  }
  return static_cast<common::SimTime>(deadlines_.front().tick) *
         tick_duration_;
}

}  // namespace updp2p::runtime

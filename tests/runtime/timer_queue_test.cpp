#include "runtime/timer_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace updp2p::runtime {
namespace {

TEST(TimerQueue, FiresAtDeadline) {
  TimerQueue timers(0.05);
  std::vector<double> fired;
  (void)timers.schedule_at(0.2, [&](common::SimTime at) { fired.push_back(at); });
  timers.advance(0.1);
  EXPECT_TRUE(fired.empty());
  timers.advance(0.3);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_NEAR(fired[0], 0.2, 0.05 + 1e-9);
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerQueue, FiresInDeadlineThenScheduleOrder) {
  TimerQueue timers(0.05);
  std::vector<std::string> order;
  (void)timers.schedule_at(0.30, [&](common::SimTime) { order.push_back("late"); });
  (void)timers.schedule_at(0.10, [&](common::SimTime) { order.push_back("a"); });
  (void)timers.schedule_at(0.10, [&](common::SimTime) { order.push_back("b"); });
  timers.advance(1.0);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "late"}));
}

TEST(TimerQueue, CancelPreventsFiring) {
  TimerQueue timers(0.05);
  int fired = 0;
  const auto id = timers.schedule_at(0.1, [&](common::SimTime) { ++fired; });
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_FALSE(timers.cancel(id));  // already cancelled
  timers.advance(1.0);
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(timers.cancel(TimerQueue::kInvalidTimer));
}

TEST(TimerQueue, CancelReleasesItsCallback) {
  // A cancelled timer holds nothing: its callback, and whatever that
  // captured, is gone when cancel returns, however far out it was due.
  TimerQueue timers(0.05);
  const auto captured = std::make_shared<int>(0);
  const auto id = timers.schedule_at(60.0, [captured](common::SimTime) {});
  EXPECT_EQ(captured.use_count(), 2);
  ASSERT_TRUE(timers.cancel(id));
  EXPECT_EQ(captured.use_count(), 1);
}

TEST(TimerQueue, PastDeadlineFiresOnNextAdvance) {
  TimerQueue timers(0.05);
  timers.advance(1.0);
  int fired = 0;
  (void)timers.schedule_at(0.2, [&](common::SimTime) { ++fired; });
  timers.advance(1.05);
  EXPECT_EQ(fired, 1);
}

TEST(TimerQueue, FarDeadlineWaitsForItsTick) {
  // An advance past the near timer's tick fires it alone; the far one
  // waits for the advance that reaches its own tick.
  TimerQueue timers(0.1);
  std::vector<std::string> order;
  (void)timers.schedule_at(1.0, [&](common::SimTime) { order.push_back("far"); });
  (void)timers.schedule_at(0.2, [&](common::SimTime) { order.push_back("near"); });
  timers.advance(0.5);
  EXPECT_EQ(order, (std::vector<std::string>{"near"}));
  timers.advance(2.0);
  EXPECT_EQ(order, (std::vector<std::string>{"near", "far"}));
}

TEST(TimerQueue, CallbackMayScheduleWithinSameAdvance) {
  TimerQueue timers(0.05);
  std::vector<std::string> order;
  (void)timers.schedule_at(0.1, [&](common::SimTime) {
    order.push_back("first");
    // Lands before the advance target: fires within this same advance.
    (void)timers.schedule_at(0.3, [&](common::SimTime) { order.push_back("chained"); });
  });
  timers.advance(0.5);
  EXPECT_EQ(order, (std::vector<std::string>{"first", "chained"}));
}

TEST(TimerQueue, CallbackMayCancelSibling) {
  TimerQueue timers(0.05);
  std::vector<std::string> order;
  TimerQueue::TimerId second = TimerQueue::kInvalidTimer;
  (void)timers.schedule_at(0.1, [&](common::SimTime) {
    order.push_back("killer");
    EXPECT_TRUE(timers.cancel(second));
  });
  second = timers.schedule_at(0.2, [&](common::SimTime) { order.push_back("victim"); });
  timers.advance(1.0);
  EXPECT_EQ(order, (std::vector<std::string>{"killer"}));
}

TEST(TimerQueue, NextDeadlineTracksEarliestPending) {
  TimerQueue timers(0.05);
  EXPECT_FALSE(timers.next_deadline().has_value());
  (void)timers.schedule_at(0.4, [](common::SimTime) {});
  const auto a_id = timers.schedule_at(0.15, [](common::SimTime) {});
  auto deadline = timers.next_deadline();
  ASSERT_TRUE(deadline.has_value());
  EXPECT_LE(*deadline, 0.2 + 1e-9);
  EXPECT_TRUE(timers.cancel(a_id));
  deadline = timers.next_deadline();
  ASSERT_TRUE(deadline.has_value());
  EXPECT_GE(*deadline, 0.4 - 1e-9);
}

TEST(TimerQueue, ScheduleAfterUsesCurrentTime) {
  TimerQueue timers(0.05);
  timers.advance(2.0);
  int fired = 0;
  (void)timers.schedule_after(0.5, [&](common::SimTime) { ++fired; });
  timers.advance(2.4);
  EXPECT_EQ(fired, 0);
  timers.advance(2.6);
  EXPECT_EQ(fired, 1);
}

TEST(TimerQueue, AdvanceMustBeMonotone) {
  TimerQueue timers(0.05);
  timers.advance(1.0);
  EXPECT_DEATH(timers.advance(0.5), "monotone");
}

TEST(TimerQueue, ManyTimersAcrossTicks) {
  TimerQueue timers(0.01);
  int fired = 0;
  for (int i = 1; i <= 500; ++i) {
    (void)timers.schedule_at(0.01 * i, [&](common::SimTime) { ++fired; });
  }
  EXPECT_EQ(timers.pending(), 500u);
  timers.advance(6.0);
  EXPECT_EQ(fired, 500);
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerQueue, LongAdvanceFiresInDeadlineOrder) {
  // One advance crosses 1 600 ticks, 25 between consecutive deadlines;
  // the timers must still fire in deadline order.
  TimerQueue timers(0.01);
  std::vector<int> fired;
  for (int i = 0; i < 64; ++i) {
    (void)timers.schedule_at(
        0.25 * (i + 1), [&fired, i](common::SimTime) { fired.push_back(i); });
  }
  timers.advance(16.0);
  ASSERT_EQ(fired.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);

  // A fresh timer scheduled after the long advance lands exactly on its
  // own tick.
  int late = 0;
  (void)timers.schedule_after(0.05, [&](common::SimTime) { ++late; });
  timers.advance(16.03);
  EXPECT_EQ(late, 0);
  timers.advance(16.06);
  EXPECT_EQ(late, 1);
}

TEST(TimerQueue, CancelThenRearmSameDeadline) {
  TimerQueue timers(0.05);
  int old_fired = 0;
  int new_fired = 0;
  const auto old_id =
      timers.schedule_at(0.2, [&](common::SimTime) { ++old_fired; });
  ASSERT_TRUE(timers.cancel(old_id));
  const auto new_id =
      timers.schedule_at(0.2, [&](common::SimTime) { ++new_fired; });
  EXPECT_NE(new_id, old_id);
  // The stale id must not resurrect or hit the replacement timer.
  EXPECT_FALSE(timers.cancel(old_id));
  timers.advance(1.0);
  EXPECT_EQ(old_fired, 0);
  EXPECT_EQ(new_fired, 1);
  EXPECT_FALSE(timers.cancel(new_id));  // already fired
}

TEST(TimerQueue, CallbackMayRearmItselfAtFixedCadence) {
  // The PeerRuntime round-tick pattern: each firing schedules the next.
  TimerQueue timers(0.05);
  int rounds = 0;
  std::function<void(common::SimTime)> tick =
      [&](common::SimTime at) {
        ++rounds;
        if (rounds < 10) (void)timers.schedule_at(at + 0.25, tick);
      };
  (void)timers.schedule_at(0.25, tick);
  timers.advance(10.0);
  EXPECT_EQ(rounds, 10);
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerQueue, MassExpiryAtOneTickFiresInScheduleOrder) {
  constexpr int kTimers = 5000;
  TimerQueue timers(0.05);
  std::vector<int> order;
  order.reserve(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    (void)timers.schedule_at(
        0.1, [&order, i](common::SimTime) { order.push_back(i); });
  }
  EXPECT_EQ(timers.pending(), static_cast<std::size_t>(kTimers));
  timers.advance(0.2);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTimers));
  for (int i = 0; i < kTimers; ++i) {
    if (order[static_cast<std::size_t>(i)] != i) {
      FAIL() << "schedule order broken at index " << i;
    }
  }
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerQueue, MassExpiryWithMidFlightCancellations) {
  // Every even timer cancels its odd successor from inside its callback
  // while the same tick is still draining: the successor must not fire.
  constexpr int kTimers = 1000;
  TimerQueue timers(0.05);
  std::vector<TimerQueue::TimerId> ids(kTimers, TimerQueue::kInvalidTimer);
  std::vector<int> fired;
  for (int i = 0; i < kTimers; ++i) {
    ids[static_cast<std::size_t>(i)] =
        timers.schedule_at(0.1, [&, i](common::SimTime) {
          fired.push_back(i);
          if (i % 2 == 0) {
            EXPECT_TRUE(timers.cancel(ids[static_cast<std::size_t>(i) + 1]));
          }
        });
  }
  timers.advance(0.2);
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kTimers) / 2);
  for (const int i : fired) EXPECT_EQ(i % 2, 0);
  EXPECT_EQ(timers.pending(), 0u);
}

// --- differential test against a reference model ----------------------------

/// The queue's contract as a plain list of timers: the same tick
/// quantisation and ids, next_deadline as the linear minimum over the list,
/// and advance firing, tick by tick, the earliest-scheduled timer due at the
/// tick until none is left.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(common::SimTime tick_duration)
      : tick_duration_(tick_duration) {}

  TimerQueue::TimerId schedule_at(common::SimTime deadline,
                                  TimerQueue::Callback callback) {
    std::uint64_t tick = 0;
    if (deadline > 0.0) {
      tick = static_cast<std::uint64_t>(std::ceil(deadline / tick_duration_));
    }
    if (tick <= current_tick_) tick = current_tick_ + 1;
    const TimerQueue::TimerId id{tick, next_sequence_++};
    timers_.push_back(Timer{id, std::move(callback)});
    return id;
  }
  TimerQueue::TimerId schedule_after(common::SimTime delay,
                                     TimerQueue::Callback callback) {
    return schedule_at(now_ + delay, std::move(callback));
  }
  bool cancel(TimerQueue::TimerId id) {
    const auto it = std::find_if(timers_.begin(), timers_.end(),
                                 [id](const Timer& t) { return t.id == id; });
    if (it == timers_.end()) return false;
    timers_.erase(it);
    return true;
  }
  void advance(common::SimTime now) {
    now_ = now;
    const auto target_tick = static_cast<std::uint64_t>(now / tick_duration_);
    while (current_tick_ < target_tick) {
      ++current_tick_;
      for (;;) {
        const auto it =
            std::find_if(timers_.begin(), timers_.end(), [&](const Timer& t) {
              return t.id.tick == current_tick_;
            });
        if (it == timers_.end()) break;
        TimerQueue::Callback callback = std::move(it->callback);
        timers_.erase(it);
        callback(static_cast<common::SimTime>(current_tick_) * tick_duration_);
      }
    }
  }
  [[nodiscard]] std::size_t pending() const { return timers_.size(); }
  [[nodiscard]] std::optional<common::SimTime> next_deadline() const {
    if (timers_.empty()) return std::nullopt;
    std::uint64_t min_tick = ~std::uint64_t{0};
    for (const Timer& timer : timers_) {
      min_tick = std::min(min_tick, timer.id.tick);
    }
    return static_cast<common::SimTime>(min_tick) * tick_duration_;
  }

 private:
  struct Timer {
    TimerQueue::TimerId id;
    TimerQueue::Callback callback;
  };
  common::SimTime tick_duration_;
  std::vector<Timer> timers_;  ///< in schedule order
  std::uint64_t current_tick_ = 0;
  common::SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 1;
};

std::ostream& operator<<(std::ostream& out, const TimerQueue::TimerId& id) {
  return out << "{tick " << id.tick << " seq " << id.sequence << "}";
}

/// What one callback saw and did.
struct Fire {
  std::size_t timer = 0;  ///< creation index of the timer that fired
  common::SimTime at = 0.0;
  std::optional<std::size_t> cancelled;  ///< creation index it cancelled
  bool cancel_result = false;
  std::optional<TimerQueue::TimerId> child;
  std::optional<common::SimTime> next_deadline;
  std::size_t pending = 0;
  bool operator==(const Fire&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Fire& fire) {
  out << "{timer " << fire.timer << " at " << fire.at;
  if (fire.cancelled) {
    out << " cancel " << *fire.cancelled << (fire.cancel_result ? "+" : "-");
  }
  if (fire.child) out << " child " << *fire.child;
  out << " next ";
  if (fire.next_deadline) {
    out << *fire.next_deadline;
  } else {
    out << "none";
  }
  return out << " pending " << fire.pending << "}";
}

constexpr common::SimTime kTick = 0.05;
constexpr std::uint64_t kCallbackPurpose = 0xCA11;
constexpr std::uint64_t kOpsPurpose = 0x0B5;

/// A deadline around `now`: in the past, on the current tick, within the
/// horizon, or several horizons out.
common::SimTime draw_deadline(common::StreamRng& rng, common::SimTime now,
                              common::SimTime horizon) {
  const double kind = rng.uniform01();
  if (kind < 0.15) return now - 2.0 * rng.uniform01();
  if (kind < 0.25) return now;
  if (kind < 0.75) return now + horizon * rng.uniform01();
  return now + horizon * (1.0 + 3.0 * rng.uniform01());
}

/// One queue (real or reference) and the timers scheduled on it. Every
/// timer's callback draws from its own stream keyed by creation index, so
/// both harnesses run the same callbacks as long as they stay in step:
/// some cancel a sibling (or themselves, or a fired timer), some schedule
/// a child, and each one records next_deadline and pending as it saw them.
template <class Queue>
class Harness {
 public:
  Harness(common::SimTime horizon, std::uint64_t seed)
      : queue_(kTick), horizon_(horizon), seed_(seed) {}
  // The callbacks hold `this`.
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  TimerQueue::TimerId schedule_at(common::SimTime deadline) {
    const std::size_t index = reserve();
    ids_[index] = queue_.schedule_at(deadline, callback(index));
    return ids_[index];
  }
  TimerQueue::TimerId schedule_after(common::SimTime delay) {
    const std::size_t index = reserve();
    ids_[index] = queue_.schedule_after(delay, callback(index));
    return ids_[index];
  }
  /// Cancels by creation index; an index past the end names an id no
  /// timer has yet.
  bool cancel(std::size_t index) {
    return queue_.cancel(index < ids_.size()
                             ? ids_[index]
                             : TimerQueue::TimerId{1, std::uint64_t{1} << 40});
  }

  Queue& queue() { return queue_; }
  [[nodiscard]] std::size_t created() const { return ids_.size(); }
  [[nodiscard]] const std::vector<Fire>& fires() const { return fires_; }

 private:
  std::size_t reserve() {
    ids_.push_back(TimerQueue::kInvalidTimer);
    return ids_.size() - 1;
  }
  TimerQueue::Callback callback(std::size_t index) {
    return [this, index](common::SimTime at) { on_fire(index, at); };
  }
  void on_fire(std::size_t index, common::SimTime at) {
    common::StreamRng rng(seed_, index, kCallbackPurpose);
    Fire fire;
    fire.timer = index;
    fire.at = at;
    if (rng.bernoulli(0.3)) {
      fire.cancelled = static_cast<std::size_t>(rng.uniform_below(ids_.size()));
      fire.cancel_result = cancel(*fire.cancelled);
    }
    if (rng.bernoulli(0.35)) {
      fire.child = schedule_at(draw_deadline(rng, at, horizon_));
    }
    fire.next_deadline = queue_.next_deadline();
    fire.pending = queue_.pending();
    fires_.push_back(fire);
  }

  Queue queue_;
  common::SimTime horizon_;
  std::uint64_t seed_;
  std::vector<TimerQueue::TimerId> ids_;  ///< by creation index
  std::vector<Fire> fires_;
};

/// Parametrized by how far out deadlines reach: one tick, four ticks and
/// 256 ticks.
class TimerQueueVsReference
    : public ::testing::TestWithParam<common::SimTime> {};

TEST_P(TimerQueueVsReference, SameDeadlinesPendingAndFireOrder) {
  constexpr std::uint64_t kSeeds = 40;
  constexpr int kOps = 3000;
  const common::SimTime horizon = GetParam();
  const auto horizon_ticks =
      static_cast<std::uint64_t>(std::llround(horizon / kTick));
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Harness<TimerQueue> real(horizon, seed);
    Harness<ReferenceQueue> model(horizon, seed);
    common::StreamRng ops(seed, horizon_ticks, kOpsPurpose);
    common::SimTime now = 0.0;
    std::size_t compared = 0;
    for (int op = 0; op < kOps; ++op) {
      const double kind = ops.uniform01();
      if (kind < 0.35) {
        const common::SimTime deadline = draw_deadline(ops, now, horizon);
        ASSERT_EQ(real.schedule_at(deadline), model.schedule_at(deadline));
      } else if (kind < 0.5) {
        const common::SimTime delay = horizon * 2.0 * ops.uniform01();
        ASSERT_EQ(real.schedule_after(delay), model.schedule_after(delay));
      } else if (kind < 0.7) {
        const auto index = static_cast<std::size_t>(
            ops.uniform_below(real.created() + 2));
        ASSERT_EQ(real.cancel(index), model.cancel(index));
      } else if (kind < 0.95) {
        // Mostly steps shorter than a tick; now and then a jump over
        // several horizons.
        now += ops.bernoulli(0.1) ? 3.0 * horizon * ops.uniform01()
                                  : 1.5 * kTick * ops.uniform01();
        real.queue().advance(now);
        model.queue().advance(now);
      }  // else: a query only
      ASSERT_EQ(real.queue().next_deadline(), model.queue().next_deadline())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(real.queue().pending(), model.queue().pending())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(real.fires().size(), model.fires().size())
          << "seed " << seed << " op " << op;
      for (; compared < real.fires().size(); ++compared) {
        ASSERT_EQ(real.fires()[compared], model.fires()[compared])
            << "seed " << seed << " op " << op << " fire " << compared;
      }
    }
    // The stream must exercise what it claims to.
    EXPECT_GT(real.fires().size(), std::size_t{kOps} / 4) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Horizons, TimerQueueVsReference,
    ::testing::Values(0.05, 0.2, 12.8),
    [](const ::testing::TestParamInfo<common::SimTime>& horizon) {
      return "horizon" + std::to_string(std::llround(horizon.param * 1000.0)) +
             "ms";
    });

}  // namespace
}  // namespace updp2p::runtime

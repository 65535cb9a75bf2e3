#include "runtime/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"

namespace updp2p::runtime {
namespace {

TEST(TimerWheel, FiresAtDeadline) {
  TimerWheel wheel(0.05);
  std::vector<double> fired;
  (void)wheel.schedule_at(0.2, [&](common::SimTime at) { fired.push_back(at); });
  wheel.advance(0.1);
  EXPECT_TRUE(fired.empty());
  wheel.advance(0.3);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_NEAR(fired[0], 0.2, 0.05 + 1e-9);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, FiresInDeadlineThenScheduleOrder) {
  TimerWheel wheel(0.05);
  std::vector<std::string> order;
  (void)wheel.schedule_at(0.30, [&](common::SimTime) { order.push_back("late"); });
  (void)wheel.schedule_at(0.10, [&](common::SimTime) { order.push_back("a"); });
  (void)wheel.schedule_at(0.10, [&](common::SimTime) { order.push_back("b"); });
  wheel.advance(1.0);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "late"}));
}

TEST(TimerWheel, CancelPreventsFiring) {
  TimerWheel wheel(0.05);
  int fired = 0;
  const auto id = wheel.schedule_at(0.1, [&](common::SimTime) { ++fired; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));  // already cancelled
  wheel.advance(1.0);
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(wheel.cancel(TimerWheel::kInvalidTimer));
}

TEST(TimerWheel, PastDeadlineFiresOnNextAdvance) {
  TimerWheel wheel(0.05);
  wheel.advance(1.0);
  int fired = 0;
  (void)wheel.schedule_at(0.2, [&](common::SimTime) { ++fired; });
  wheel.advance(1.05);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, HandlesDeadlinesBeyondOneRevolution) {
  // slot_count 4 with tick 0.1 → a revolution is 0.4s; deadlines far past
  // that must wait for their actual tick, not fire at the first hash hit.
  TimerWheel wheel(0.1, 4);
  std::vector<std::string> order;
  (void)wheel.schedule_at(1.0, [&](common::SimTime) { order.push_back("far"); });
  (void)wheel.schedule_at(0.2, [&](common::SimTime) { order.push_back("near"); });
  wheel.advance(0.5);
  EXPECT_EQ(order, (std::vector<std::string>{"near"}));
  wheel.advance(2.0);
  EXPECT_EQ(order, (std::vector<std::string>{"near", "far"}));
}

TEST(TimerWheel, CallbackMayScheduleWithinSameAdvance) {
  TimerWheel wheel(0.05);
  std::vector<std::string> order;
  (void)wheel.schedule_at(0.1, [&](common::SimTime) {
    order.push_back("first");
    // Lands before the advance target: fires within this same advance.
    (void)wheel.schedule_at(0.3, [&](common::SimTime) { order.push_back("chained"); });
  });
  wheel.advance(0.5);
  EXPECT_EQ(order, (std::vector<std::string>{"first", "chained"}));
}

TEST(TimerWheel, CallbackMayCancelSibling) {
  TimerWheel wheel(0.05);
  std::vector<std::string> order;
  TimerWheel::TimerId second = TimerWheel::kInvalidTimer;
  (void)wheel.schedule_at(0.1, [&](common::SimTime) {
    order.push_back("killer");
    EXPECT_TRUE(wheel.cancel(second));
  });
  second = wheel.schedule_at(0.2, [&](common::SimTime) { order.push_back("victim"); });
  wheel.advance(1.0);
  EXPECT_EQ(order, (std::vector<std::string>{"killer"}));
}

TEST(TimerWheel, NextDeadlineTracksEarliestPending) {
  TimerWheel wheel(0.05);
  EXPECT_FALSE(wheel.next_deadline().has_value());
  (void)wheel.schedule_at(0.4, [](common::SimTime) {});
  const auto a_id = wheel.schedule_at(0.15, [](common::SimTime) {});
  auto deadline = wheel.next_deadline();
  ASSERT_TRUE(deadline.has_value());
  EXPECT_LE(*deadline, 0.2 + 1e-9);
  EXPECT_TRUE(wheel.cancel(a_id));
  deadline = wheel.next_deadline();
  ASSERT_TRUE(deadline.has_value());
  EXPECT_GE(*deadline, 0.4 - 1e-9);
}

TEST(TimerWheel, ScheduleAfterUsesCurrentTime) {
  TimerWheel wheel(0.05);
  wheel.advance(2.0);
  int fired = 0;
  (void)wheel.schedule_after(0.5, [&](common::SimTime) { ++fired; });
  wheel.advance(2.4);
  EXPECT_EQ(fired, 0);
  wheel.advance(2.6);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, AdvanceMustBeMonotone) {
  TimerWheel wheel(0.05);
  wheel.advance(1.0);
  EXPECT_DEATH(wheel.advance(0.5), "monotone");
}

TEST(TimerWheel, ManyTimersAcrossSlots) {
  TimerWheel wheel(0.01, 8);
  int fired = 0;
  for (int i = 1; i <= 500; ++i) {
    (void)wheel.schedule_at(0.01 * i, [&](common::SimTime) { ++fired; });
  }
  EXPECT_EQ(wheel.pending(), 500u);
  wheel.advance(6.0);
  EXPECT_EQ(fired, 500);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, TickWrapAroundAcrossManyRevolutions) {
  // 8 slots × 0.01s tick = 0.08s per revolution. One advance sweeps 200
  // revolutions; every slot index wraps dozens of times in between fires,
  // and the timers must still fire in absolute-deadline order.
  TimerWheel wheel(0.01, 8);
  std::vector<int> fired;
  for (int i = 0; i < 64; ++i) {
    (void)wheel.schedule_at(0.25 * (i + 1),
                            [&fired, i](common::SimTime) { fired.push_back(i); });
  }
  wheel.advance(16.0);
  ASSERT_EQ(fired.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);

  // A fresh timer scheduled after the heavy wrap still lands exactly on
  // its own tick, not on a stale revolution of the same slot.
  int late = 0;
  (void)wheel.schedule_after(0.05, [&](common::SimTime) { ++late; });
  wheel.advance(16.03);
  EXPECT_EQ(late, 0);
  wheel.advance(16.06);
  EXPECT_EQ(late, 1);
}

TEST(TimerWheel, CancelThenRearmSameDeadline) {
  TimerWheel wheel(0.05);
  int old_fired = 0;
  int new_fired = 0;
  const auto old_id =
      wheel.schedule_at(0.2, [&](common::SimTime) { ++old_fired; });
  ASSERT_TRUE(wheel.cancel(old_id));
  const auto new_id =
      wheel.schedule_at(0.2, [&](common::SimTime) { ++new_fired; });
  EXPECT_NE(new_id, old_id);
  // The stale id must not resurrect or hit the replacement timer.
  EXPECT_FALSE(wheel.cancel(old_id));
  wheel.advance(1.0);
  EXPECT_EQ(old_fired, 0);
  EXPECT_EQ(new_fired, 1);
  EXPECT_FALSE(wheel.cancel(new_id));  // already fired
}

TEST(TimerWheel, CallbackMayRearmItselfAtFixedCadence) {
  // The PeerRuntime round-tick pattern: each firing schedules the next.
  TimerWheel wheel(0.05);
  int rounds = 0;
  std::function<void(common::SimTime)> tick =
      [&](common::SimTime at) {
        ++rounds;
        if (rounds < 10) (void)wheel.schedule_at(at + 0.25, tick);
      };
  (void)wheel.schedule_at(0.25, tick);
  wheel.advance(10.0);
  EXPECT_EQ(rounds, 10);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, MassExpiryAtOneTickFiresInScheduleOrder) {
  constexpr int kTimers = 5000;
  TimerWheel wheel(0.05, 16);
  std::vector<int> order;
  order.reserve(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    (void)wheel.schedule_at(0.1,
                            [&order, i](common::SimTime) { order.push_back(i); });
  }
  EXPECT_EQ(wheel.pending(), static_cast<std::size_t>(kTimers));
  wheel.advance(0.2);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTimers));
  for (int i = 0; i < kTimers; ++i) {
    if (order[static_cast<std::size_t>(i)] != i) {
      FAIL() << "schedule order broken at index " << i;
    }
  }
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, MassExpiryWithMidFlightCancellations) {
  // Every even timer cancels its odd successor from inside its callback
  // while the same tick is still draining: the successor must not fire.
  constexpr int kTimers = 1000;
  TimerWheel wheel(0.05, 16);
  std::vector<TimerWheel::TimerId> ids(kTimers, TimerWheel::kInvalidTimer);
  std::vector<int> fired;
  for (int i = 0; i < kTimers; ++i) {
    ids[static_cast<std::size_t>(i)] =
        wheel.schedule_at(0.1, [&, i](common::SimTime) {
          fired.push_back(i);
          if (i % 2 == 0) {
            EXPECT_TRUE(wheel.cancel(ids[static_cast<std::size_t>(i) + 1]));
          }
        });
  }
  wheel.advance(0.2);
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kTimers) / 2);
  for (const int i : fired) EXPECT_EQ(i % 2, 0);
  EXPECT_EQ(wheel.pending(), 0u);
}

// --- differential test against a reference model ----------------------------

/// The wheel's contract as a plain list of (id, deadline tick): the same
/// tick quantisation, next_deadline as the linear minimum over the list, and
/// advance firing, tick by tick, the earliest-scheduled timer due at the tick
/// until none is left.
class ReferenceWheel {
 public:
  explicit ReferenceWheel(common::SimTime tick_duration)
      : tick_duration_(tick_duration) {}

  TimerWheel::TimerId schedule_at(common::SimTime deadline,
                                  TimerWheel::Callback callback) {
    std::uint64_t tick = 0;
    if (deadline > 0.0) {
      tick = static_cast<std::uint64_t>(std::ceil(deadline / tick_duration_));
    }
    if (tick <= current_tick_) tick = current_tick_ + 1;
    timers_.push_back(Timer{next_id_, tick, std::move(callback)});
    return next_id_++;
  }
  TimerWheel::TimerId schedule_after(common::SimTime delay,
                                     TimerWheel::Callback callback) {
    return schedule_at(now_ + delay, std::move(callback));
  }
  bool cancel(TimerWheel::TimerId id) {
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
              return t.deadline_tick == current_tick_;
            });
        if (it == timers_.end()) break;
        TimerWheel::Callback callback = std::move(it->callback);
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
      min_tick = std::min(min_tick, timer.deadline_tick);
    }
    return static_cast<common::SimTime>(min_tick) * tick_duration_;
  }

 private:
  struct Timer {
    TimerWheel::TimerId id;
    std::uint64_t deadline_tick;
    TimerWheel::Callback callback;
  };
  common::SimTime tick_duration_;
  std::vector<Timer> timers_;  ///< in schedule order
  std::uint64_t current_tick_ = 0;
  common::SimTime now_ = 0.0;
  TimerWheel::TimerId next_id_ = 1;
};

/// What one callback saw and did.
struct Fire {
  std::size_t timer = 0;  ///< creation index of the timer that fired
  common::SimTime at = 0.0;
  std::optional<std::size_t> cancelled;  ///< creation index it cancelled
  bool cancel_result = false;
  std::optional<TimerWheel::TimerId> child;
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

/// A deadline around `now`: in the past, on the current tick, within one
/// revolution of the wheel, or several revolutions out.
common::SimTime draw_deadline(common::StreamRng& rng, common::SimTime now,
                              common::SimTime revolution) {
  const double kind = rng.uniform01();
  if (kind < 0.15) return now - 2.0 * rng.uniform01();
  if (kind < 0.25) return now;
  if (kind < 0.75) return now + revolution * rng.uniform01();
  return now + revolution * (1.0 + 3.0 * rng.uniform01());
}

/// One wheel (real or reference) and the timers scheduled on it. Every
/// timer's callback draws from its own stream keyed by creation index, so
/// both harnesses run the same callbacks as long as they stay in step:
/// some cancel a sibling (or themselves, or a fired timer), some schedule
/// a child, and each one records next_deadline and pending as it saw them.
template <class Wheel>
class Harness {
 public:
  Harness(std::size_t slot_count, std::uint64_t seed)
      : wheel_(make_wheel(slot_count)),
        revolution_(kTick * static_cast<double>(slot_count)),
        seed_(seed) {}
  // The callbacks hold `this`.
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  TimerWheel::TimerId schedule_at(common::SimTime deadline) {
    const std::size_t index = reserve();
    ids_[index] = wheel_.schedule_at(deadline, callback(index));
    return ids_[index];
  }
  TimerWheel::TimerId schedule_after(common::SimTime delay) {
    const std::size_t index = reserve();
    ids_[index] = wheel_.schedule_after(delay, callback(index));
    return ids_[index];
  }
  /// Cancels by creation index; an index past the end names an id no
  /// timer has yet.
  bool cancel(std::size_t index) {
    return wheel_.cancel(index < ids_.size() ? ids_[index]
                                             : TimerWheel::TimerId{1} << 40);
  }

  Wheel& wheel() { return wheel_; }
  [[nodiscard]] std::size_t created() const { return ids_.size(); }
  [[nodiscard]] const std::vector<Fire>& fires() const { return fires_; }

 private:
  static Wheel make_wheel(std::size_t slot_count) {
    if constexpr (std::is_same_v<Wheel, TimerWheel>) {
      return TimerWheel(kTick, slot_count);
    } else {
      return ReferenceWheel(kTick);
    }
  }
  std::size_t reserve() {
    ids_.push_back(TimerWheel::kInvalidTimer);
    return ids_.size() - 1;
  }
  TimerWheel::Callback callback(std::size_t index) {
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
      fire.child = schedule_at(draw_deadline(rng, at, revolution_));
    }
    fire.next_deadline = wheel_.next_deadline();
    fire.pending = wheel_.pending();
    fires_.push_back(fire);
  }

  Wheel wheel_;
  common::SimTime revolution_;
  std::uint64_t seed_;
  std::vector<TimerWheel::TimerId> ids_;  ///< by creation index
  std::vector<Fire> fires_;
};

class TimerWheelVsReference : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TimerWheelVsReference, SameDeadlinesPendingAndFireOrder) {
  constexpr std::uint64_t kSeeds = 40;
  constexpr int kOps = 3000;
  const std::size_t slot_count = GetParam();
  const common::SimTime revolution = kTick * static_cast<double>(slot_count);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Harness<TimerWheel> real(slot_count, seed);
    Harness<ReferenceWheel> model(slot_count, seed);
    common::StreamRng ops(seed, slot_count, kOpsPurpose);
    common::SimTime now = 0.0;
    std::size_t compared = 0;
    for (int op = 0; op < kOps; ++op) {
      const double kind = ops.uniform01();
      if (kind < 0.35) {
        const common::SimTime deadline = draw_deadline(ops, now, revolution);
        ASSERT_EQ(real.schedule_at(deadline), model.schedule_at(deadline));
      } else if (kind < 0.5) {
        const common::SimTime delay = revolution * 2.0 * ops.uniform01();
        ASSERT_EQ(real.schedule_after(delay), model.schedule_after(delay));
      } else if (kind < 0.7) {
        const auto index = static_cast<std::size_t>(
            ops.uniform_below(real.created() + 2));
        ASSERT_EQ(real.cancel(index), model.cancel(index));
      } else if (kind < 0.95) {
        // Mostly steps shorter than a tick; now and then a jump over
        // several revolutions.
        now += ops.bernoulli(0.1) ? 3.0 * revolution * ops.uniform01()
                                  : 1.5 * kTick * ops.uniform01();
        real.wheel().advance(now);
        model.wheel().advance(now);
      }  // else: a query only
      ASSERT_EQ(real.wheel().next_deadline(), model.wheel().next_deadline())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(real.wheel().pending(), model.wheel().pending())
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
    SlotCounts, TimerWheelVsReference,
    ::testing::Values(std::size_t{1}, std::size_t{4}, std::size_t{256}),
    [](const ::testing::TestParamInfo<std::size_t>& slots) {
      return "slots" + std::to_string(slots.param);
    });

}  // namespace
}  // namespace updp2p::runtime

// Tests for the discrete-event simulator: ordering, cancellation, periodic
// timers, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace atum::sim {
namespace {

// A handle the simulator never issued: a far-future generation on slot 7.
EventId make_unknown_id(int round) {
  return (static_cast<EventId>(0xFFFF0000u + static_cast<std::uint32_t>(round)) << 32) | 7u;
}

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, FifoAmongEqualTimestamps) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.schedule_at(5, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  TimeMicros seen = -1;
  s.schedule_at(100, [&] { s.schedule_after(50, [&] { seen = s.now(); }); });
  s.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator s;
  EXPECT_THROW(s.schedule_after(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, PastDeadlineClampsToNow) {
  Simulator s;
  TimeMicros seen = -1;
  s.schedule_at(100, [&] {
    s.schedule_at(5, [&] { seen = s.now(); });  // 5 < now=100
  });
  s.run();
  EXPECT_EQ(seen, 100);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  EventId id = s.schedule_at(10, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator s;
  EventId id = s.schedule_at(1, [] {});
  s.run();
  s.cancel(id);  // must not blow up or affect future events
  bool fired = false;
  s.schedule_at(2, [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  std::vector<TimeMicros> fired;
  for (TimeMicros t : {10, 20, 30, 40}) s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  s.run_until(25);
  EXPECT_EQ(fired, (std::vector<TimeMicros>{10, 20}));
  EXPECT_EQ(s.now(), 25);
  s.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, RunUntilInclusive) {
  Simulator s;
  bool fired = false;
  s.schedule_at(25, [&] { fired = true; });
  s.run_until(25);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunWithLimitStopsEarly) {
  Simulator s;
  int count = 0;
  for (int i = 0; i < 100; ++i) s.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(s.run(10), 10u);
  EXPECT_EQ(count, 10);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(1, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 4);
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 7u);
}

TEST(PeriodicTimer, FiresRepeatedly) {
  Simulator s;
  int fires = 0;
  PeriodicTimer t(s, 10, [&] { ++fires; });
  s.run_until(55);
  EXPECT_EQ(fires, 5);  // at 10,20,30,40,50
  t.stop();
}

TEST(PeriodicTimer, StopHaltsFiring) {
  Simulator s;
  int fires = 0;
  PeriodicTimer t(s, 10, [&] { ++fires; });
  s.run_until(25);
  t.stop();
  s.run_until(200);
  EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimer, StopFromInsideCallback) {
  Simulator s;
  int fires = 0;
  PeriodicTimer t(s, 10, [&] {
    if (++fires == 3) t.stop();
  });
  s.run_until(500);
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTimer, DestructorCancels) {
  Simulator s;
  int fires = 0;
  {
    PeriodicTimer t(s, 10, [&] { ++fires; });
    s.run_until(15);
  }
  s.run_until(100);
  EXPECT_EQ(fires, 1);
}

TEST(PeriodicTimer, RejectsNonPositivePeriod) {
  Simulator s;
  EXPECT_THROW(PeriodicTimer(s, 0, [] {}), std::invalid_argument);
}

TEST(Simulator, LiveEventsStaysExactUnderCancel) {
  Simulator s;
  EXPECT_EQ(s.live_events(), 0u);
  EventId a = s.schedule_at(10, [] {});
  EventId b = s.schedule_at(20, [] {});
  EXPECT_EQ(s.live_events(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.live_events(), 1u);
  s.cancel(a);  // double cancel: no-op, no underflow
  EXPECT_EQ(s.live_events(), 1u);
  s.run();
  EXPECT_EQ(s.live_events(), 0u);
  s.cancel(b);               // cancel after fire: no-op
  s.cancel(0);               // reserved null handle
  s.cancel(0xdeadbeefULL);   // handle never issued
  EXPECT_EQ(s.live_events(), 0u);
  EXPECT_TRUE(s.empty());
  // The engine still works afterwards.
  bool fired = false;
  s.schedule_after(1, [&] { fired = true; });
  EXPECT_EQ(s.live_events(), 1u);
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelledFiredAndUnknownIdsDoNotAccumulate) {
  // Seed bug: cancelling fired/unknown ids grew the tombstone set forever
  // and made live_events() (queue size minus tombstones) underflow.
  Simulator s;
  for (int round = 0; round < 1000; ++round) {
    EventId id = s.schedule_at(round, [] {});
    s.run();
    s.cancel(id);                                   // already fired
    s.cancel(make_unknown_id(round));               // never issued
    EXPECT_EQ(s.live_events(), 0u);
    EXPECT_TRUE(s.empty());
  }
  EXPECT_EQ(s.heap_size(), 0u);
  EXPECT_LE(s.slot_count(), 4u);  // arena tracks peak concurrency, not history
}

TEST(Simulator, MemoryBoundedUnderScheduleCancelChurn) {
  // 1M schedule/cancel cycles with a rolling window of pending events — the
  // heartbeat-timeout pattern of a 100k-node run. The seed's tombstone set
  // grew with every cancel; the slot arena and heap must stay proportional
  // to the window, not to the cycle count.
  Simulator s;
  constexpr std::size_t kWindow = 1024;
  std::vector<EventId> pending;
  pending.reserve(kWindow);
  for (std::size_t i = 0; i < 1'000'000; ++i) {
    if (pending.size() == kWindow) {
      s.cancel(pending[i % kWindow]);
      pending[i % kWindow] = s.schedule_at(static_cast<TimeMicros>(i + 1'000'000), [] {});
    } else {
      pending.push_back(s.schedule_at(static_cast<TimeMicros>(i + 1'000'000), [] {}));
    }
    ASSERT_LE(s.live_events(), kWindow);
    ASSERT_LE(s.slot_count(), 2 * kWindow);
    ASSERT_LE(s.heap_size(), 4 * kWindow);  // stale entries swept by compaction
  }
  EXPECT_EQ(s.live_events(), kWindow);
  for (EventId id : pending) s.cancel(id);
  EXPECT_EQ(s.live_events(), 0u);
  s.run();
  EXPECT_EQ(s.executed_events(), 0u);  // everything was cancelled in time
}

TEST(Simulator, SlotReuseDoesNotResurrectOldHandles) {
  Simulator s;
  bool first_fired = false;
  bool second_fired = false;
  EventId a = s.schedule_at(10, [&] { first_fired = true; });
  s.cancel(a);
  // The slot is recycled with a new generation; the old handle must not be
  // able to cancel the new occupant.
  EventId b = s.schedule_at(20, [&] { second_fired = true; });
  s.cancel(a);
  s.run();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
  EXPECT_NE(a, b);
}

TEST(Simulator, CancelFromInsideEventHandler) {
  Simulator s;
  bool victim_fired = false;
  EventId victim = s.schedule_at(20, [&] { victim_fired = true; });
  s.schedule_at(10, [&] { s.cancel(victim); });
  s.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(s.live_events(), 0u);
}

TEST(Simulator, RunUntilSkipsCancelledEvents) {
  Simulator s;
  std::vector<int> fired;
  s.schedule_at(10, [&] { fired.push_back(1); });
  EventId mid = s.schedule_at(20, [&] { fired.push_back(2); });
  s.schedule_at(30, [&] { fired.push_back(3); });
  s.cancel(mid);
  EXPECT_EQ(s.run_until(30), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(Simulator, DeterministicInterleaving) {
  // Two identical runs produce identical event orders.
  auto run_once = [] {
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      s.schedule_at(i % 7, [&order, i] { order.push_back(i); });
    }
    s.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, EqualDueTimesFireInScheduleOrderAcrossTheHorizon) {
  // A is scheduled while 10 s is far ahead, B only 1 ms before it is due,
  // and C from inside B with no delay. All three are due at 10 s, so they
  // fire in the order they were scheduled, wherever the queue keeps them.
  Simulator s;
  std::vector<char> order;
  s.schedule_at(seconds(10.0), [&] { order.push_back('A'); });
  s.run_until(seconds(10.0) - millis(1));
  s.schedule_at(seconds(10.0), [&] {
    order.push_back('B');
    s.schedule_after(0, [&] { order.push_back('C'); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
  EXPECT_EQ(s.now(), seconds(10.0));
}

// The queue against a reference model: a std::set of (due time, schedule
// order) pairs, driven side by side with a Simulator by one seeded stream
// of operations. Delays are 0, uniform over 1 us - 20 ms, 5-10 s, or the
// exact due time of a pending event; handlers schedule and cancel too.
struct ReferenceQueue {
  struct Pending {
    TimeMicros at;
    EventId id;
    std::size_t pos;  // index in `tags`
  };

  Simulator sim;
  Rng rng{0x5117u};
  std::set<std::pair<TimeMicros, std::uint64_t>> due;  // (at, schedule order)
  std::unordered_map<std::uint64_t, Pending> pending;   // by schedule order
  std::vector<std::uint64_t> tags;                      // pending, for random picks
  std::vector<EventId> gone;                            // fired or cancelled handles
  std::uint64_t next_tag = 0;
  TimeMicros now = 0;
  std::uint64_t fired = 0;
  bool diverged = false;

  DurationMicros draw_delay() {
    switch (rng.next_below(16)) {
      case 0:
        return 0;
      case 1:
        return rng.next_in(seconds(5.0), seconds(10.0));
      case 2:
        return tags.empty() ? 0 : pending.at(tags[rng.next_below(tags.size())]).at - now;
      case 3:
        return early_due() - now;
      default:
        return rng.next_in(1, millis(20));
    }
  }

  // The due time of one of the 16 earliest pending events; now when none is.
  TimeMicros early_due() {
    if (due.empty()) return now;
    auto it = due.begin();
    for (std::uint64_t k = rng.next_below(std::min<std::size_t>(due.size(), 16)); k > 0; --k) ++it;
    return it->first;
  }

  void schedule(DurationMicros delay) {
    const std::uint64_t tag = next_tag++;
    const EventId id = sim.schedule_after(delay, [this, tag] { fire(tag); });
    due.emplace(now + delay, tag);
    pending.emplace(tag, Pending{now + delay, id, tags.size()});
    tags.push_back(tag);
  }

  void forget(std::uint64_t tag) {
    auto it = pending.find(tag);
    due.erase({it->second.at, tag});
    const std::size_t pos = it->second.pos;
    tags[pos] = tags.back();
    pending.at(tags[pos]).pos = pos;
    tags.pop_back();
    gone.push_back(it->second.id);
    pending.erase(it);
  }

  void cancel_random() {
    if (!gone.empty() && rng.next_below(4) == 0) {
      sim.cancel(gone[rng.next_below(gone.size())]);  // fired or cancelled: a no-op
      return;
    }
    if (tags.empty()) return;
    const std::uint64_t tag = tags[rng.next_below(tags.size())];
    sim.cancel(pending.at(tag).id);
    forget(tag);
  }

  void fire(std::uint64_t tag) {
    if (diverged) return;
    if (due.empty() || due.begin()->second != tag || due.begin()->first != sim.now()) {
      diverged = true;
      return;
    }
    now = sim.now();
    forget(tag);
    ++fired;
    if (sim.live_events() != due.size()) {
      diverged = true;
      return;
    }
    switch (rng.next_below(6)) {
      case 0:
        schedule(0);  // the coalescer's flush
        break;
      case 1:
        cancel_random();
        break;
      case 2:
        schedule(draw_delay());
        break;
      default:
        break;
    }
  }

  TimeMicros draw_horizon() {
    const std::uint64_t r = rng.next_below(128);
    if (r == 0) return now + rng.next_in(0, seconds(10.0));
    if (r < 32) return early_due();
    return now + rng.next_in(0, millis(1));
  }
};

TEST(Simulator, MatchesAReferenceModelUnderRandomOperations) {
  // The stream mostly schedules while fewer than kDepth events are
  // pending and mostly fires once more are, so the queue stays about that
  // deep between the rare horizons that drain it.
  constexpr std::size_t kDepth = 512;
  ReferenceQueue q;
  for (int op = 0; op < 200'000; ++op) {
    const bool shallow = q.due.size() < kDepth;
    const std::uint64_t r = q.rng.next_below(20);
    if (r < (shallow ? 16u : 6u)) {
      q.schedule(q.draw_delay());
    } else if (r < (shallow ? 17u : 8u)) {
      q.cancel_random();
    } else if (r < (shallow ? 19u : 18u)) {
      const bool expect_fire = !q.due.empty();
      const std::uint64_t before = q.fired;
      ASSERT_EQ(q.sim.step(), expect_fire) << "op " << op;
      ASSERT_EQ(q.fired - before, expect_fire ? 1u : 0u) << "op " << op;
    } else {
      const TimeMicros horizon = q.draw_horizon();
      const std::uint64_t before = q.fired;
      const std::uint64_t ran = q.sim.run_until(horizon);
      ASSERT_FALSE(q.diverged) << "op " << op;
      ASSERT_EQ(ran, q.fired - before) << "op " << op;
      ASSERT_TRUE(q.due.empty() || q.due.begin()->first > horizon) << "op " << op;
      q.now = std::max(q.now, horizon);
    }
    ASSERT_FALSE(q.diverged) << "op " << op;
    ASSERT_EQ(q.sim.now(), q.now) << "op " << op;
    ASSERT_EQ(q.sim.live_events(), q.due.size()) << "op " << op;
  }
  const std::uint64_t before = q.fired;
  const std::uint64_t ran = q.sim.run();
  EXPECT_EQ(ran, q.fired - before);
  EXPECT_FALSE(q.diverged);
  EXPECT_TRUE(q.due.empty());
  EXPECT_EQ(q.sim.live_events(), 0u);
  EXPECT_EQ(q.sim.executed_events(), q.fired);
}

// ---------------------------------------------------------------------------
// EventFn small-buffer storage
// ---------------------------------------------------------------------------

TEST(EventFn, DeliveryClosureStaysInline) {
  // The shape SimNetwork::send schedules per message: a network pointer
  // plus the Message (with its refcounted sliced Payload). This closure
  // defines EventFn::kInlineCapacity — if it ever spills to the heap the
  // per-message allocation the SBO exists to remove is back.
  net::SimNetwork* network = nullptr;
  net::Message m{1, 2, net::MsgType::kAppData, net::Payload(Bytes(256, 7))};
  EventFn fn([network, m = std::move(m)]() { (void)network; });
  EXPECT_TRUE(fn.stores_inline());
}

TEST(EventFn, InlineClosureDestroysCaptures) {
  auto token = std::make_shared<int>(1);
  {
    EventFn fn([token] {});
    EXPECT_TRUE(fn.stores_inline());
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);  // inline storage ran the destructor
}

TEST(EventFn, HeapFallbackForOversizedClosures) {
  auto token = std::make_shared<int>(42);
  std::array<std::uint64_t, 16> big{};
  int fired = 0;
  EventFn fn([token, big, &fired] {
    fired += static_cast<int>(big[0]) + 1;
  });
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_FALSE(fn.stores_inline());
  fn();
  EXPECT_EQ(fired, 1);
  fn = nullptr;  // releases the heap callable
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventFn, MoveTransfersOwnership) {
  int fired = 0;
  EventFn a([&fired] { ++fired; });
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: moved-from state is empty
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(fired, 1);
}

TEST(EventFn, SharedPayloadClosureMovesWithoutCopyingTheBuffer) {
  net::Payload payload(Bytes(4096, 0xAB));
  EXPECT_EQ(payload.use_count(), 1);
  EventFn fn([p = payload]() { (void)p; });
  EXPECT_TRUE(fn.stores_inline());
  EXPECT_EQ(payload.use_count(), 2);  // one shared ref, not a 4 KiB copy
  EventFn moved = std::move(fn);
  EXPECT_EQ(payload.use_count(), 2);  // relocation moved the ref, not the buffer
  moved = nullptr;
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(EventFn, EmptyInvocationThrowsLikeStdFunction) {
  EventFn fn;
  EXPECT_THROW(fn(), std::bad_function_call);
  EventFn null_fn(nullptr);
  EXPECT_THROW(null_fn(), std::bad_function_call);
}

TEST(Simulator, ThrowingHandlerDoesNotLeakTheSlot) {
  Simulator s;
  auto token = std::make_shared<int>(7);
  s.schedule_at(1, [token] { throw std::runtime_error("handler failure"); });
  EXPECT_THROW(s.step(), std::runtime_error);
  // The slot (and the closure's captures) must have been recycled despite
  // the exception; the simulator stays usable.
  EXPECT_EQ(token.use_count(), 1);
  bool fired = false;
  s.schedule_at(2, [&fired] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_LE(s.slot_count(), 1u);  // the recycled slot was reused
}

TEST(Simulator, EventsScheduledFromInsideACallbackFire) {
  // Closures execute in place in the chunked arena; a callback scheduling
  // enough events to grow the arena must not invalidate itself.
  Simulator s;
  int fired = 0;
  s.schedule_at(1, [&] {
    for (int i = 0; i < 2000; ++i) {
      s.schedule_at(2, [&fired] { ++fired; });
    }
  });
  s.run();
  EXPECT_EQ(fired, 2000);
}

}  // namespace
}  // namespace atum::sim


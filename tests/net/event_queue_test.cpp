#include "dsjoin/net/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "dsjoin/common/rng.hpp"

namespace dsjoin::net {
namespace {

TEST(EventQueue, StartsEmptyAtTimeZero) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 0.0);
  EXPECT_FALSE(q.run_one());
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbacksMayScheduleMore) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) q.schedule_in(1.0, chain);
  };
  q.schedule_at(0.5, chain);
  q.run_all();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.5);
}

TEST(EventQueue, ScheduleInIsRelativeToNow) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(10.0, [&] {
    q.schedule_in(2.5, [&] { fired_at = q.now(); });
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 12.5);
}

TEST(EventQueue, RunUntilStopsAtLimit) {
  EventQueue q;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    q.schedule_at(t, [&times, &q] { times.push_back(q.now()); });
  }
  EXPECT_EQ(q.run_until(2.5), 2u);
  EXPECT_EQ(times.size(), 2u);
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.run_until(100.0), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunAllHonoursMaxEvents) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 10; ++i) q.schedule_at(i, [&] { ++fired; });
  EXPECT_EQ(q.run_all(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, NextWhenAndBarrierInspection) {
  EventQueue q;
  q.schedule_at(2.0, [] {});
  q.schedule_barrier_at(1.0, [] {});
  EXPECT_EQ(q.next_when(), 1.0);
  EXPECT_TRUE(q.next_is_barrier());
  EXPECT_TRUE(q.run_one());
  EXPECT_EQ(q.next_when(), 2.0);
  EXPECT_FALSE(q.next_is_barrier());
}

TEST(EventQueue, RunEpochDrainsExactTimestampTies) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  EXPECT_EQ(q.run_epoch(), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.now(), 1.0);
  EXPECT_EQ(q.run_epoch(), 1u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(q.run_epoch(), 0u);
}

TEST(EventQueue, RunEpochPreservesInsertionOrderWithinTie) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5.0, [&] { order.push_back(0); });
  q.schedule_at(5.0, [&] { order.push_back(1); });
  q.schedule_at(5.0, [&] { order.push_back(2); });
  q.run_epoch();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, BarrierRunsAloneEvenWhenTied) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(0); });
  q.schedule_barrier_at(1.0, [&] { order.push_back(100); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  // First epoch stops short of the barrier; the barrier then runs alone.
  EXPECT_EQ(q.run_epoch(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(q.run_epoch(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 100}));
  EXPECT_EQ(q.run_epoch(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1}));
}

TEST(EventQueue, EventsScheduledDuringEpochJoinFollowingEpochs) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] {
    order.push_back(1);
    // Same-time insertion lands after the tie already being drained.
    q.schedule_at(1.0, [&] { order.push_back(2); });
    q.schedule_at(3.0, [&] { order.push_back(3); });
  });
  EXPECT_EQ(q.run_epoch(), 2u);  // both t=1.0 events, in causal order
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.run_epoch(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ManyEventsStaySorted) {
  EventQueue q;
  double last = -1.0;
  bool monotone = true;
  // Insert in a scrambled order.
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    q.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  q.run_all();
  EXPECT_TRUE(monotone);
}

// Model check: 100k interleaved schedule / run_one / run_epoch / run_until
// steps with heavy exact-time ties, barriers and callbacks that schedule
// more, against a reference (when, sequence) ordering kept here.
TEST(EventQueue, MatchesReferenceOrderingModel) {
  struct Ref {
    double when;
    std::uint64_t sequence;
    bool barrier;
    bool operator<(const Ref& o) const {
      return std::tie(when, sequence) < std::tie(o.when, o.sequence);
    }
  };
  EventQueue q;
  std::set<Ref> ref;
  std::uint64_t sequence = 0;
  std::uint64_t mismatches = 0;
  std::vector<Ref> fired;
  common::Xoshiro256 rng(31337);

  // Delays from a small grid, so most events tie exactly with others.
  const auto delay = [&rng] { return 0.25 * static_cast<double>(rng.next_below(5)); };
  std::function<void(double, bool, int)> schedule;
  schedule = [&](double when, bool barrier, int spawn) {
    const Ref me{when, sequence++, barrier};
    ref.insert(me);
    auto fn = [&, me, spawn] {
      if (ref.empty() || ref.begin()->sequence != me.sequence ||
          q.now() != me.when) {
        ++mismatches;
      } else {
        ref.erase(ref.begin());
      }
      fired.push_back(me);
      // Nested scheduling from inside a callback, ties included.
      for (int i = 0; i < spawn; ++i) {
        schedule(q.now() + delay(), rng.next_below(10) == 0, 0);
      }
    };
    if (barrier) {
      q.schedule_barrier_at(when, fn);
    } else {
      q.schedule_at(when, fn);
    }
  };

  std::size_t steps = 0;
  for (; steps < 100000; ++steps) {
    const std::uint64_t op = rng.next_below(100);
    const std::size_t before = fired.size();
    if (op < 50 || ref.empty()) {
      schedule(q.now() + delay(), rng.next_below(10) == 0,
               static_cast<int>(rng.next_below(3)));
    } else if (op < 85) {
      EXPECT_TRUE(q.run_one());
      EXPECT_EQ(fired.size(), before + 1);
    } else if (op < 95) {
      const Ref head = *ref.begin();
      const std::size_t ran = q.run_epoch();
      EXPECT_EQ(fired.size(), before + ran);
      EXPECT_GE(ran, 1u);
      for (std::size_t i = before; i < fired.size(); ++i) {
        EXPECT_EQ(fired[i].when, head.when);
        if (ran > 1) {
          EXPECT_FALSE(fired[i].barrier);
        }
      }
      // The epoch stopped at a new timestamp, a barrier, or a dry queue.
      if (!head.barrier && !ref.empty()) {
        EXPECT_TRUE(ref.begin()->when != head.when || ref.begin()->barrier);
      }
    } else {
      const double limit = q.now() + delay();
      q.run_until(limit);
      for (std::size_t i = before; i < fired.size(); ++i) {
        EXPECT_LE(fired[i].when, limit);
      }
      if (!ref.empty()) {
        EXPECT_GT(ref.begin()->when, limit);
      }
    }
    ASSERT_EQ(q.pending(), ref.size()) << "step " << steps;
    if (!ref.empty()) {
      ASSERT_EQ(q.next_when(), ref.begin()->when) << "step " << steps;
      ASSERT_EQ(q.next_is_barrier(), ref.begin()->barrier) << "step " << steps;
    }
  }
  q.run_all();
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(fired.size(), sequence);
}

TEST(EventQueue, CallbacksScheduleWhileTheSlabGrows) {
  // A running callback schedules thousands of events, each with a capture
  // too large for std::function's inline buffer: the slab reallocates
  // under the running callback, and every payload must arrive intact.
  EventQueue q;
  std::vector<std::uint64_t> seen;
  q.schedule_at(1.0, [&] {
    for (std::uint64_t i = 0; i < 5000; ++i) {
      std::array<std::uint64_t, 6> payload{};
      payload.fill(i);
      q.schedule_at(2.0 + static_cast<double>(i % 7), [&seen, payload] {
        for (std::uint64_t v : payload) {
          if (v != payload[0]) seen.push_back(~0ULL);
        }
        seen.push_back(payload[0]);
      });
    }
    EXPECT_EQ(q.pending(), 5000u);
  });
  q.run_all();
  ASSERT_EQ(seen.size(), 5000u);
  // Time order first, insertion order within each tie.
  std::vector<std::uint64_t> expected;
  for (std::uint64_t r = 0; r < 7; ++r) {
    for (std::uint64_t i = r; i < 5000; i += 7) expected.push_back(i);
  }
  EXPECT_EQ(seen, expected);
}

TEST(EventQueue, RunAndPendingCallbacksReleaseWhatTheyOwn) {
  auto token = std::make_shared<int>(42);
  {
    EventQueue q;
    for (int i = 0; i < 100; ++i) {
      q.schedule_at(static_cast<double>(i), [token] { (void)*token; });
    }
    EXPECT_EQ(token.use_count(), 101);
    // A callback that has run is destroyed, not parked in its slot.
    EXPECT_EQ(q.run_all(40), 40u);
    EXPECT_EQ(token.use_count(), 61);
    // Freed slots are reused by new events.
    q.schedule_barrier_at(200.0, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 62);
  }
  // Pending callbacks are destroyed with the queue.
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace dsjoin::net

namespace dsjoin::net {
namespace {

TEST(EventQueueReserved, ReservedEventOrdersAtItsReservationPoint) {
  // A sequence reserved before two ordinary ties at the same time must pop
  // first, although it is entered last.
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t seq = q.reserve_sequence();
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(1.0, [&] { order.push_back(2); });
  q.schedule_reserved_at(1.0, seq, [&] { order.push_back(0); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueReserved, ReservationsAdvanceTheSharedCounter) {
  // schedule_at after a reservation draws a larger sequence: the reserved
  // tie pops first even when an ordinary event is entered before it.
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t a = q.reserve_sequence();
  const std::uint64_t b = q.reserve_sequence();
  EXPECT_LT(a, b);
  q.schedule_at(2.0, [&] { order.push_back(3); });
  q.schedule_reserved_at(2.0, b, [&] { order.push_back(2); });
  q.schedule_reserved_at(2.0, a, [&] { order.push_back(1); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueReserved, TimeStillDominatesSequence) {
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t early = q.reserve_sequence();
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_reserved_at(3.0, early, [&] { order.push_back(3); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueueReserved, EnteredFromARunningCallback) {
  // The per-link delivery pattern: the head's callback enters the link's
  // next frame under the sequence it reserved earlier, before any larger
  // key can pop; a tie at the next frame's time scheduled in between (with
  // a larger sequence) must run after it.
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t head = q.reserve_sequence();
  const std::uint64_t next = q.reserve_sequence();
  q.schedule_reserved_at(1.0, head, [&] {
    order.push_back(1);
    q.schedule_reserved_at(2.0, next, [&] { order.push_back(2); });
  });
  q.schedule_at(2.0, [&] { order.push_back(3); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueReserved, RunEpochTakesReservedTies) {
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t seq = q.reserve_sequence();
  q.schedule_at(4.0, [&] { order.push_back(2); });
  q.schedule_reserved_at(4.0, seq, [&] { order.push_back(1); });
  q.schedule_at(5.0, [&] { order.push_back(3); });
  EXPECT_EQ(q.run_epoch(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueReserved, RandomReservationsMatchImmediateScheduling) {
  // Model check: a producer that reserves at decision time and enters the
  // event later (at most before the next pop) yields exactly the order of
  // scheduling immediately.
  common::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    EventQueue immediate;
    EventQueue deferred;
    std::vector<int> order_a;
    std::vector<int> order_b;
    struct Held {
      double when;
      std::uint64_t seq;
      int id;
    };
    std::vector<Held> held;
    int id = 0;
    for (int round = 0; round < 40; ++round) {
      const int n = static_cast<int>(rng.next_below(5));
      for (int k = 0; k < n; ++k) {
        const double when =
            immediate.now() + static_cast<double>(rng.next_below(4));
        const int tag = id++;
        immediate.schedule_at(when, [&order_a, tag] { order_a.push_back(tag); });
        if (rng.next_bool(0.5)) {
          held.push_back(Held{when, deferred.reserve_sequence(), tag});
        } else {
          deferred.schedule_at(when,
                               [&order_b, tag] { order_b.push_back(tag); });
        }
      }
      // Enter the held events in reverse, then pop one event from each.
      while (!held.empty()) {
        const Held h = held.back();
        held.pop_back();
        deferred.schedule_reserved_at(
            h.when, h.seq, [&order_b, tag = h.id] { order_b.push_back(tag); });
      }
      immediate.run_one();
      deferred.run_one();
      ASSERT_EQ(immediate.now(), deferred.now());
    }
    immediate.run_all();
    deferred.run_all();
    EXPECT_EQ(order_a, order_b);
  }
}

}  // namespace
}  // namespace dsjoin::net

#include "common/event_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace ntcsim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] { order.push_back(10); });
  q.schedule_at(5, [&] { order.push_back(5); });
  q.schedule_at(7, [&] { order.push_back(7); });
  q.drain_until(20);
  EXPECT_EQ(order, (std::vector<int>{5, 7, 10}));
}

TEST(EventQueue, SameCycleFiresInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule_at(3, [&order, i] { order.push_back(i); });
  }
  q.drain_until(3);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, DrainStopsAtNow) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(5, [&] { ++fired; });
  q.schedule_at(6, [&] { ++fired; });
  q.drain_until(5);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_cycle(), 6u);
  q.drain_until(6);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CallbackMayScheduleForSameCycle) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(4, [&] {
    ++fired;
    q.schedule_at(4, [&] { ++fired; });
  });
  q.drain_until(4);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CallbackChainAcrossCycles) {
  EventQueue q;
  std::vector<Cycle> fire_times;
  std::function<void(Cycle)> chain = [&](Cycle at) {
    fire_times.push_back(at);
    if (at < 5) {
      q.schedule_at(at + 1, [&chain, at] { chain(at + 1); });
    }
  };
  q.schedule_at(1, [&] { chain(1); });
  for (Cycle c = 0; c <= 10; ++c) q.drain_until(c);
  EXPECT_EQ(fire_times, (std::vector<Cycle>{1, 2, 3, 4, 5}));
}

TEST(EventQueue, ClearEmptiesQueue) {
  EventQueue q;
  q.schedule_at(1, [] {});
  q.schedule_at(2, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ZeroCycleEvent) {
  EventQueue q;
  bool fired = false;
  q.schedule_at(0, [&] { fired = true; });
  q.drain_until(0);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, SlabReuseKeepsCycleThenInsertionOrder) {
  // Fired events hand their callback slots back before running, so the
  // events a callback schedules for `now` and later reuse those slots.
  // Slot numbers must never leak into the order: it stays (cycle, order
  // of scheduling) across many rounds of reuse.
  EventQueue q;
  std::vector<std::pair<Cycle, int>> fired;
  int next_id = 0;
  std::vector<std::pair<Cycle, int>> expected;
  std::function<void(Cycle, int, int)> spawn = [&](Cycle at, int id,
                                                   int depth) {
    fired.emplace_back(at, id);
    if (depth == 0) return;
    // Two children: one for this very cycle, one for a later one.
    const int now_id = next_id++;
    const int later_id = next_id++;
    q.schedule_at(at, [&spawn, at, now_id, depth] {
      spawn(at, now_id, depth - 1);
    });
    q.schedule_at(at + 2, [&spawn, at, later_id, depth] {
      spawn(at + 2, later_id, depth - 1);
    });
  };
  for (int i = 0; i < 4; ++i) {
    const int id = next_id++;
    const Cycle at = static_cast<Cycle>(3 - i);  // scheduled out of order
    q.schedule_at(at, [&spawn, at, id] { spawn(at, id, 4); });
  }
  for (Cycle c = 0; c <= 20; ++c) q.drain_until(c);
  EXPECT_TRUE(q.empty());
  ASSERT_EQ(fired.size(), 4u * 31u);  // 4 roots, full binary trees of depth 4
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].first, fired[i].first) << "at event " << i;
  }
  // Within one cycle, ids were handed out in scheduling order — except the
  // roots, which were scheduled for descending cycles up front.
  for (std::size_t i = 1; i < fired.size(); ++i) {
    if (fired[i - 1].first == fired[i].first && fired[i - 1].second >= 4 &&
        fired[i].second >= 4) {
      EXPECT_LT(fired[i - 1].second, fired[i].second) << "at event " << i;
    }
  }
  EXPECT_EQ(q.total_pushes(), 4u + 4u * 30u);
}

TEST(EventQueue, ClearResetsSlotsAndReleasesCallbacks) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  q.schedule_at(5, [token] {});
  q.schedule_at(6, [token] {});
  EXPECT_EQ(token.use_count(), 3);
  q.clear();
  EXPECT_EQ(token.use_count(), 1) << "clear() must destroy pending callbacks";
  EXPECT_EQ(q.total_pushes(), 0u);
  // The queue is fully usable afterwards, in (cycle, insertion) order.
  std::vector<int> order;
  q.schedule_at(2, [&] { order.push_back(2); });
  q.schedule_at(1, [&] { order.push_back(1); });
  q.schedule_at(1, [&] { order.push_back(11); });
  q.drain_until(10);
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2}));
}

TEST(EventQueue, FiredCallbacksReleaseTheirCaptures) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  q.schedule_at(1, [token] {});
  q.drain_until(1);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace ntcsim

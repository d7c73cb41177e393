#include "common/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace dresar {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.scheduleAt(10, [&] { order.push_back(1); });
  eq.scheduleAt(5, [&] { order.push_back(0); });
  eq.scheduleAt(20, [&] { order.push_back(2); });
  EXPECT_TRUE(eq.run());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, FifoTieBreakAtSameCycle) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eq.scheduleAt(7, [&order, i] { order.push_back(i); });
  }
  eq.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NestedSchedulingAdvancesTime) {
  EventQueue eq;
  Cycle seen = 0;
  eq.scheduleAt(3, [&] {
    eq.scheduleIn(4, [&] { seen = eq.now(); });
  });
  eq.run();
  EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue eq;
  eq.scheduleAt(10, [&] {
    EXPECT_THROW(eq.scheduleAt(5, [] {}), std::logic_error);
  });
  eq.run();
}

TEST(EventQueue, RunWithLimitStopsEarly) {
  EventQueue eq;
  bool late = false;
  eq.scheduleAt(100, [&] { late = true; });
  EXPECT_FALSE(eq.run(50));
  EXPECT_FALSE(late);
  EXPECT_EQ(eq.pending(), 1u);
  EXPECT_TRUE(eq.run());
  EXPECT_TRUE(late);
}

TEST(EventQueue, RunWhilePredicate) {
  EventQueue eq;
  int count = 0;
  for (int i = 1; i <= 10; ++i) eq.scheduleAt(static_cast<Cycle>(i), [&] { ++count; });
  const bool stopped = eq.runWhile([&] { return count < 4; });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(count, 4);
}

TEST(EventQueue, ExecutedCounter) {
  EventQueue eq;
  for (int i = 0; i < 5; ++i) eq.scheduleAt(1, [] {});
  eq.run();
  EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, ClearDropsPending) {
  EventQueue eq;
  bool ran = false;
  eq.scheduleAt(1, [&] { ran = true; });
  eq.clear();
  EXPECT_TRUE(eq.empty());
  eq.run();
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace dresar

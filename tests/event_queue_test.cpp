#include "common/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
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

TEST(EventQueue, ExecutedCounter) {
  EventQueue eq;
  for (int i = 0; i < 5; ++i) eq.scheduleAt(1, [] {});
  eq.run();
  EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, SameCycleAppendsFireAfterTheBatchInFifoOrder) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    eq.scheduleAt(5, [&eq, &order, i] {
      order.push_back(i);
      eq.scheduleAt(5, [&eq, &order, i] {
        order.push_back(10 + i);
        if (i == 0) eq.scheduleIn(0, [&order] { order.push_back(100); });
      });
    });
  }
  eq.scheduleAt(6, [&order] { order.push_back(200); });
  EXPECT_TRUE(eq.run());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12, 100, 200}));
  EXPECT_EQ(eq.executed(), 8u);
}

TEST(EventQueue, ThrowMidBatchKeepsTheRestPendingInOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.scheduleAt(4, [&order] { order.push_back(0); });
  eq.scheduleAt(4, [&eq, &order] {
    order.push_back(1);
    eq.scheduleAt(4, [&order] { order.push_back(4); });  // appended by the batch
    throw std::runtime_error("handler failure");
  });
  eq.scheduleAt(4, [&order] { order.push_back(2); });
  eq.scheduleAt(4, [&order] { order.push_back(3); });
  eq.scheduleAt(9, [&order] { order.push_back(5); });
  EXPECT_THROW(eq.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(eq.pending(), 4u);  // 2, 3, the appended 4, and the cycle-9 event
  EXPECT_EQ(eq.executed(), 2u);
  EXPECT_EQ(eq.now(), 4u);
  EXPECT_TRUE(eq.run());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(eq.pending(), 0u);
  EXPECT_EQ(eq.executed(), 6u);
}

TEST(EventQueue, CountsAreExactAfterRunStopsBetweenCycles) {
  EventQueue eq;
  eq.scheduleAt(1, [&eq] {
    eq.scheduleAt(1, [] {});   // same-cycle append: fires in the cycle-1 batch
    eq.scheduleAt(50, [] {});  // beyond the limit
  });
  eq.scheduleAt(1, [] {});
  eq.scheduleAt(1, [] {});
  eq.scheduleAt(10, [] {});
  eq.scheduleAt(100, [] {});
  EXPECT_FALSE(eq.run(20));
  EXPECT_EQ(eq.now(), 10u);
  EXPECT_EQ(eq.executed(), 5u);
  EXPECT_EQ(eq.pending(), 2u);
  EXPECT_FALSE(eq.run(60));
  EXPECT_EQ(eq.executed(), 6u);
  EXPECT_EQ(eq.pending(), 1u);
  EXPECT_TRUE(eq.run());
  EXPECT_EQ(eq.executed(), 7u);
  EXPECT_EQ(eq.pending(), 0u);
  EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CountsAreExactAfterAThrowInABatchThatAppended) {
  EventQueue eq;
  std::vector<int> order;
  eq.scheduleAt(4, [&order] { order.push_back(0); });
  eq.scheduleAt(4, [&eq, &order] {
    order.push_back(1);
    eq.scheduleAt(4, [&order] {  // same-cycle append, itself failing later
      order.push_back(4);
      throw std::runtime_error("appended handler failure");
    });
    eq.scheduleAt(8, [&order] { order.push_back(5); });     // near window
    eq.scheduleAt(5000, [&order] { order.push_back(6); });  // overflow map
    throw std::runtime_error("handler failure");
  });
  eq.scheduleAt(4, [&order] { order.push_back(2); });
  eq.scheduleAt(4, [&order] { order.push_back(3); });
  EXPECT_THROW(eq.run(), std::runtime_error);
  EXPECT_EQ(eq.executed(), 2u);
  EXPECT_EQ(eq.pending(), 5u);  // 2, 3, the appended 4, cycles 8 and 5000
  EXPECT_THROW(eq.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(eq.executed(), 5u);
  EXPECT_EQ(eq.pending(), 2u);
  EXPECT_EQ(eq.now(), 4u);
  EXPECT_TRUE(eq.run());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(eq.executed(), 7u);
  EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, FarOnlyEventsFireAtTheirCycles) {
  EventQueue eq;
  std::vector<Cycle> seen;
  eq.scheduleAt(5000, [&eq, &seen] { seen.push_back(eq.now()); });
  eq.scheduleAt(3000, [&eq, &seen] { seen.push_back(eq.now()); });
  EXPECT_FALSE(eq.run(2999));
  EXPECT_EQ(eq.pending(), 2u);
  EXPECT_FALSE(eq.run(4000));  // stopped by the limit
  EXPECT_EQ(seen, (std::vector<Cycle>{3000}));
  EXPECT_EQ(eq.pending(), 1u);
  EXPECT_TRUE(eq.run());
  EXPECT_EQ(seen, (std::vector<Cycle>{3000, 5000}));
  EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueue, NextCycleIsFoundAcrossTheRingWrap) {
  // From cycle 1000 the near window [1000, 2024) wraps the 1024-bucket ring:
  // cycle 1024 sits in bucket 0, and cycle 2000 in bucket 976 (the same
  // bitmap word as the current cycle's bucket, below it).
  EventQueue eq;
  std::vector<Cycle> seen;
  eq.scheduleAt(1000, [&eq, &seen] {
    for (const Cycle c : {2000u, 1030u, 1024u, 1023u, 1010u, 3000u}) {
      eq.scheduleAt(c, [&eq, &seen] { seen.push_back(eq.now()); });
    }
  });
  EXPECT_TRUE(eq.run());
  EXPECT_EQ(seen, (std::vector<Cycle>{1010, 1023, 1024, 1030, 2000, 3000}));
  EXPECT_EQ(eq.executed(), 7u);
  EXPECT_EQ(eq.pending(), 0u);
}

/// Counts live instances, so the test can see every boxed payload released.
struct Tracked {
  explicit Tracked(int& live) : live(&live) { ++live; }
  Tracked(const Tracked& o) : live(o.live), payload(o.payload) { ++*live; }
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { --*live; }
  int* live;
  std::array<std::uint64_t, 12> payload{};  // 96+ bytes: too big for a record
};

TEST(EventQueue, BoxedPayloadsTravelAcrossEventsAndAreReleased) {
  int live = 0;
  std::uint64_t seen = 0;
  {
    EventQueue eq;
    Tracked t(live);
    t.payload[11] = 42;
    static_assert(!EventQueue::Handler::fits<decltype([t] { (void)t; })>);
    eq.scheduleAt(1, [&eq, &seen, b = eq.box(t)]() mutable {
      eq.scheduleIn(3, [&seen, b = std::move(b)] { seen = b->payload[11]; });
    });
    EXPECT_EQ(live, 2);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(seen, 42u);
    EXPECT_EQ(live, 1);  // the box died with the last event that held it
  }
  EXPECT_EQ(live, 0);
}

TEST(EventQueue, PendingBoxesAreReleasedWhenTheQueueDies) {
  int live = 0;
  {
    EventQueue eq;
    const Tracked t(live);
    eq.scheduleAt(1, [b = eq.box(t)] { (void)b; });           // near window
    eq.scheduleAt(1'000'000, [b = eq.box(t)] { (void)b; });   // overflow map
    eq.scheduleAt(0, [b = eq.box(t)] {
      (void)b;
      throw std::runtime_error("leave the rest pending");
    });
    EXPECT_THROW(eq.run(), std::runtime_error);
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(live, 3);  // t plus the two pending boxes
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace dresar

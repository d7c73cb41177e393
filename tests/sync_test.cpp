// Synchronization primitives over the simulated protocol: hardware barrier
// semantics, spin-lock mutual exclusion under real contention, and the
// sense-reversing barrier built on protocol-visible operations.
#include "cpu/sync.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/system.h"

namespace dresar {
namespace {

TEST(HwBarrier, ReleasesAllAtLastArrivalPlusLatency) {
  SystemConfig cfg;
  System sys(cfg);
  HwBarrier barrier(sys.sched(), 3, 10);
  std::vector<Cycle> released;
  auto body = [&](ThreadContext& ctx, Cycle arriveAt) -> SimTask {
    co_await ctx.delay(arriveAt);
    co_await barrier.arrive();
    released.push_back(ctx.now());
  };
  sys.spawn(body(sys.ctx(0), 5));
  sys.spawn(body(sys.ctx(1), 20));
  sys.spawn(body(sys.ctx(2), 11));
  sys.run();
  ASSERT_EQ(released.size(), 3u);
  for (const Cycle c : released) EXPECT_EQ(c, 30u);  // last arrival 20 + 10
  EXPECT_EQ(barrier.episodes(), 1u);
}

TEST(HwBarrier, MultipleEpisodes) {
  SystemConfig cfg;
  System sys(cfg);
  HwBarrier barrier(sys.sched(), 2, 4);
  int rounds = 0;
  auto body = [&](ThreadContext& ctx) -> SimTask {
    for (int i = 0; i < 5; ++i) {
      co_await ctx.delay(1 + ctx.id());
      co_await barrier.arrive();
    }
    if (ctx.id() == 0) rounds = 5;
  };
  sys.spawn(body(sys.ctx(0)));
  sys.spawn(body(sys.ctx(1)));
  sys.run();
  EXPECT_EQ(rounds, 5);
  EXPECT_EQ(barrier.episodes(), 5u);
}

TEST(SpinLock, MutualExclusionUnderContention) {
  SystemConfig cfg;
  System sys(cfg);
  SpinLock lock(sys.mem().allocAt(0, cfg.lineBytes));
  int inside = 0;
  int maxInside = 0;
  std::uint64_t counter = 0;
  constexpr int kIters = 20;
  auto body = [&](ThreadContext& ctx) -> SimTask {
    for (int i = 0; i < kIters; ++i) {
      co_await lock.acquire(ctx);
      ++inside;
      maxInside = std::max(maxInside, inside);
      co_await ctx.delay(7);  // hold the lock across simulated time
      ++counter;
      --inside;
      co_await lock.release(ctx);
      co_await ctx.compute(12);
    }
  };
  for (NodeId n = 0; n < cfg.numNodes; ++n) sys.spawn(body(sys.ctx(n)));
  sys.run();
  EXPECT_EQ(maxInside, 1) << "two holders inside the critical section";
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kIters) * cfg.numNodes);
  EXPECT_FALSE(lock.held());
}

TEST(SpinLock, GeneratesCoherenceTraffic) {
  SystemConfig cfg;
  System sys(cfg);
  SpinLock lock(sys.mem().allocAt(3, cfg.lineBytes));
  auto body = [&](ThreadContext& ctx) -> SimTask {
    for (int i = 0; i < 4; ++i) {
      co_await lock.acquire(ctx);
      co_await lock.release(ctx);
    }
  };
  for (NodeId n = 0; n < 4; ++n) sys.spawn(body(sys.ctx(n)));
  sys.run();
  // The lock line must have migrated between caches via the protocol.
  EXPECT_GT(sys.stats().sumByPrefix("net.msgs.WriteRequest"), 0u);
  EXPECT_GT(sys.ctx(0).rmws(), 0u);
}

TEST(SenseBarrier, SynchronizesViaProtocolOps) {
  SystemConfig cfg;
  System sys(cfg);
  SenseBarrier barrier(sys.mem().allocAt(0, cfg.lineBytes), sys.mem().allocAt(1, cfg.lineBytes),
                       4);
  std::vector<int> phaseAt(4, 0);
  bool ordered = true;
  auto body = [&](ThreadContext& ctx) -> SimTask {
    for (int phase = 0; phase < 3; ++phase) {
      co_await ctx.delay(1 + 13 * ctx.id());  // stagger arrivals
      phaseAt[ctx.id()] = phase;
      co_await barrier.arrive(ctx);
      // After the barrier no one may still be in an older phase.
      for (const int p : phaseAt) {
        if (p < phase) ordered = false;
      }
    }
  };
  for (NodeId n = 0; n < 4; ++n) sys.spawn(body(sys.ctx(n)));
  sys.run();
  EXPECT_TRUE(ordered);
}

}  // namespace
}  // namespace dresar

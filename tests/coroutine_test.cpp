// SimTask coroutine machinery: start/suspend/resume, nesting via symmetric
// transfer, exception propagation, and interaction with the event queue
// through a ThreadContext.
#include <gtest/gtest.h>

#include <stdexcept>

#include "cpu/sync.h"
#include "cpu/task.h"
#include "sim/system.h"

namespace dresar {
namespace {

SimTask immediate(int& out) {
  out = 42;
  co_return;
}

TEST(SimTask, RunsOnStart) {
  int out = 0;
  SimTask t = immediate(out);
  EXPECT_FALSE(t.done());  // initial_suspend
  EXPECT_EQ(out, 0);
  t.start();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(out, 42);
}

SimTask child(int& v) {
  v += 1;
  co_return;
}

SimTask parent(int& v) {
  co_await child(v);
  co_await child(v);
  v *= 10;
}

TEST(SimTask, NestedTasksRunToCompletion) {
  int v = 0;
  SimTask t = parent(v);
  t.start();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(v, 20);
}

SimTask throwing() {
  throw std::runtime_error("boom");
  co_return;
}

TEST(SimTask, ExceptionIsCapturedAndRethrown) {
  SimTask t = throwing();
  t.start();
  EXPECT_TRUE(t.done());
  EXPECT_THROW(t.rethrowIfFailed(), std::runtime_error);
}

SimTask throwingParent() {
  co_await throwing();
  ADD_FAILURE() << "must not resume past a throwing child";
}

TEST(SimTask, ChildExceptionPropagatesToParent) {
  SimTask t = throwingParent();
  t.start();
  EXPECT_TRUE(t.done());
  EXPECT_THROW(t.rethrowIfFailed(), std::runtime_error);
}

SimTask delayer(ThreadContext& ctx, Cycle d, Cycle& when) {
  co_await ctx.delay(d);
  when = ctx.now();
}

TEST(ThreadContext, DelayResumesAtSimulatedTime) {
  SystemConfig cfg;
  System sys(cfg);
  Cycle when = 0;
  sys.spawn(delayer(sys.ctx(0), 25, when));
  sys.run();
  EXPECT_EQ(when, 25u);
}

SimTask computeTask(ThreadContext& ctx, Cycle& when) {
  co_await ctx.compute(8);  // 8 instructions at 4-issue = 2 cycles
  when = ctx.now();
}

TEST(ThreadContext, ComputeScalesWithIssueWidth) {
  SystemConfig cfg;
  System sys(cfg);
  Cycle when = 0;
  sys.spawn(computeTask(sys.ctx(0), when));
  sys.run();
  EXPECT_EQ(when, 2u);
}

SimTask loadStore(System& sys, ThreadContext& ctx) {
  AddressSpace& mem = sys.mem();
  const Addr a = mem.alloc(64);
  const ReadResult r = co_await ctx.load(a);
  EXPECT_NE(r.service, ReadService::L1Hit);  // cold miss
  co_await ctx.store(a);
  co_await ctx.fence();
  const ReadResult r2 = co_await ctx.load(a);
  EXPECT_EQ(r2.service, ReadService::L1Hit);
  ctx.markDone(ctx.now());
}

TEST(ThreadContext, LoadStoreFenceRoundTrip) {
  SystemConfig cfg;
  System sys(cfg);
  sys.spawn(loadStore(sys, sys.ctx(0)));
  sys.run();
  EXPECT_TRUE(sys.ctx(0).isDone());
  EXPECT_EQ(sys.ctx(0).loads(), 2u);
  EXPECT_EQ(sys.ctx(0).stores(), 1u);
  EXPECT_GT(sys.ctx(0).readStallCycles(), 0u);
}

TEST(System, DeadlockIsDetected) {
  SystemConfig cfg;
  System sys(cfg);
  HwBarrier barrier(sys.sched(), 2, 10);  // 2 participants, only 1 arrives
  auto waiter = [](HwBarrier& b) -> SimTask { co_await b.arrive(); };
  sys.spawn(waiter(barrier));
  EXPECT_THROW(sys.run(), std::runtime_error);
}

TEST(System, TaskExceptionSurfacesFromRun) {
  SystemConfig cfg;
  System sys(cfg);
  sys.spawn(throwing());
  EXPECT_THROW(sys.run(), std::runtime_error);
}

}  // namespace
}  // namespace dresar

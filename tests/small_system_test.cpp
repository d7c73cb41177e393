// Geometry generality: the library is not hard-wired to the 16-node
// reference machine. A 4-node system over 4x4 switches (one cluster per
// switch, 2 switches per stage) must behave identically in kind.
#include <gtest/gtest.h>

#include "cpu/sync.h"
#include "sim/metrics.h"
#include "sim/simulation.h"

namespace dresar {
namespace {

SystemConfig smallConfig(std::uint32_t sdEntries) {
  SystemConfig cfg;
  cfg.numNodes = 4;
  cfg.net.switchRadix = 4;
  cfg.switchDir.entries = sdEntries;
  return cfg;
}

SimTask pingPong(System& sys, ThreadContext& ctx, Addr a, int rounds, HwBarrier& barrier) {
  for (int r = 0; r < rounds; ++r) {
    if (ctx.id() == static_cast<NodeId>(r % sys.config().numNodes)) {
      co_await ctx.store(a);
      co_await ctx.fence();
    }
    co_await barrier.arrive();
    co_await ctx.load(a);
    co_await barrier.arrive();
  }
}

TEST(SmallSystem, FourNodeProtocolWorks) {
  System sys(smallConfig(256));
  HwBarrier barrier(sys.sched(), 4, 16);
  const Addr a = sys.mem().alloc(32);
  for (NodeId n = 0; n < 4; ++n) {
    sys.spawn(pingPong(sys, sys.ctx(n), a, 12, barrier));
  }
  sys.run();
  EXPECT_TRUE(sys.quiescent());
  EXPECT_EQ(sys.dresar().transientEntries(), 0u);
  // Dirty reads happened and some were served by switch directories.
  EXPECT_GT(sys.stats().counterValue("svc.CtoCSwitchDir") +
                sys.stats().counterValue("svc.CtoCHome"),
            0u);
}

TEST(SmallSystem, WorkloadsRunAtFourNodes) {
  for (const std::uint32_t sd : {0u, 256u}) {
    Simulation sim(smallConfig(sd));
    const RunMetrics m = sim.run({.workload = "sor", .scale = WorkloadScale::tiny()});
    EXPECT_GT(m.reads, 0u);
  }
}

TEST(SmallSystem, EightNodeGeometry) {
  SystemConfig cfg;
  cfg.numNodes = 8;
  cfg.net.switchRadix = 8;
  cfg.switchDir.entries = 512;
  Simulation sim(cfg);
  const RunMetrics m = sim.run({.workload = "tc", .scale = WorkloadScale::tiny()});
  EXPECT_GT(m.reads, 0u);
  EXPECT_TRUE(sim.system().quiescent());
}

TEST(SmallSystem, RejectsImpossibleGeometry) {
  SystemConfig cfg;
  cfg.numNodes = 256;       // beyond the 128-node NodeMask cap
  cfg.net.switchRadix = 8;
  EXPECT_THROW(System{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace dresar

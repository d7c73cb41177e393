// Congestion-lab tests: the flit network's saturation telemetry (credit
// stalls, stage occupancy, wormhole-lock hold times), the fault link-stall
// interaction with credit backpressure (a stalled switch starves its
// upstream stage, then the tree drains to quiescence), the hotspot /
// incast profiles' offered-vs-accepted load annotation at system level, and
// pinned values of one flit hotspot run per routing policy.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/sim_kernel.h"
#include "common/stats.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "interconnect/flit_network.h"
#include "interconnect/network.h"
#include "sim/metrics.h"
#include "sim/system.h"
#include "workloads/workload.h"

namespace dresar {
namespace {

Message wb(NodeId src, NodeId dstMem, Addr a) {
  Message m;
  m.type = MsgType::WriteBack;  // carries data: 5 flits at default geometry
  m.src = procEp(src);
  m.dst = memEp(dstMem);
  m.addr = a;
  m.requester = src;
  return m;
}

TEST(FlitCongestion, FanInPopulatesSaturationTelemetry) {
  SimKernel kernel;
  NetworkConfig cfg;
  cfg.bufferFlits = 1;  // most aggressive backpressure
  FnSink sink;
  FlitNetwork net(cfg, 16, 32, kernel.queue(), kernel.stats(),
                  NetworkHooks{&sink, nullptr, nullptr, nullptr});
  int delivered = 0;
  sink.on(memEp(0), [&](const Message&) { ++delivered; });
  for (NodeId p = 0; p < 16; ++p) net.send(wb(p, 0, 0x100 + 0x40ull * p));
  kernel.run();
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(net.inFlight(), 0u);

  const CongestionTelemetry* ct = net.congestion();
  ASSERT_NE(ct, nullptr);
  // 16 five-flit messages funneling into one memory port with one-flit
  // buffers must stall on credits and busy links somewhere.
  EXPECT_GT(ct->creditStallCycles + ct->sourceCreditStalls, 0u);
  EXPECT_GT(ct->linkBusySkips, 0u);
  // Per-switch attribution sums to the machine-wide count.
  ASSERT_EQ(ct->perSwitchCreditStalls.size(), net.topology().totalSwitches());
  const std::uint64_t perSwitchSum = std::accumulate(
      ct->perSwitchCreditStalls.begin(), ct->perSwitchCreditStalls.end(), std::uint64_t{0});
  EXPECT_EQ(perSwitchSum, ct->creditStallCycles);
  // Every stage sampled occupancy while the network was live, and the log2
  // histograms mirror the samplers sample for sample.
  ASSERT_EQ(ct->stageOccupancy.size(), net.topology().numStages());
  ASSERT_EQ(ct->stageOccupancyHist.size(), net.topology().numStages());
  for (std::size_t s = 0; s < ct->stageOccupancy.size(); ++s) {
    EXPECT_GT(ct->stageOccupancy[s].count(), 0u);
    EXPECT_EQ(ct->stageOccupancyHist[s].total(), ct->stageOccupancy[s].count());
    EXPECT_TRUE(ct->stageOccupancyHist[s].isLogSpaced());
  }
}

TEST(FlitCongestion, LockHoldTracksWormholeChains) {
  SimKernel kernel;
  NetworkConfig cfg;
  FnSink sink;
  FlitNetwork net(cfg, 16, 32, kernel.queue(), kernel.stats(),
                  NetworkHooks{&sink, nullptr, nullptr, nullptr});
  sink.on(memEp(9), [](const Message&) {});
  net.send(wb(5, 9, 0x100));
  kernel.run();
  const CongestionTelemetry* ct = net.congestion();
  ASSERT_NE(ct, nullptr);
  // A data message streams 5 flits through each switch under one wormhole
  // lock; the hold must span the serialization of the chain.
  ASSERT_GT(ct->lockHold.count(), 0u);
  EXPECT_GE(ct->lockHold.max(), static_cast<double>(cfg.linkCyclesPerFlit));
  EXPECT_EQ(ct->lockHoldHist.total(), ct->lockHold.count());
  EXPECT_TRUE(ct->lockHoldHist.isLogSpaced());
}

TEST(FlitCongestion, MessageLevelNetworkExposesNoTelemetry) {
  // The message-level model's unbounded queues have no credit state to
  // observe; congestion() must stay null so schema emission is flit-gated.
  SimKernel kernel;
  NetworkConfig cfg;
  FnSink sink;
  Network net(cfg, 16, 32, kernel.queue(), kernel.stats(),
              NetworkHooks{&sink, nullptr, nullptr, nullptr});
  EXPECT_EQ(net.congestion(), nullptr);
}

TEST(FlitCongestion, LinkStallTreeFormsUpstreamAndDrains) {
  // Freeze the top-stage switch over memories 0..3 for a long window while
  // every processor writes back to memory 0. Credit backpressure must
  // propagate the starvation into stage 0 (the stall tree), the frozen
  // switch itself attempts no grants, and once the window passes the whole
  // tree drains to quiescence with nothing stranded.
  SimKernel kernel;
  NetworkConfig cfg;
  cfg.bufferFlits = 2;
  FaultPlan plan;
  plan.linkStall = LinkStallSpec{/*stage=*/1, /*index=*/0, /*startCycle=*/0,
                                 /*lengthCycles=*/400};
  FaultInjector inj(plan, kernel.stats());
  FnSink sink;
  FlitNetwork net(cfg, 16, 32, kernel.queue(), kernel.stats(),
                  NetworkHooks{&sink, nullptr, nullptr, &inj});
  int delivered = 0;
  Cycle lastDelivery = 0;
  sink.on(memEp(0), [&](const Message&) {
    ++delivered;
    lastDelivery = kernel.now();
  });
  for (NodeId p = 0; p < 16; ++p) net.send(wb(p, 0, 0x100 + 0x40ull * p));
  kernel.run();

  // The tree drains: everything delivered, no live flits, stalls balanced
  // (link stalls perturb timing only, so nothing needs recovery).
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(net.inFlight(), 0u);
  EXPECT_NO_THROW(inj.requireBalanced());
  // Delivery cannot complete inside the frozen window.
  EXPECT_GT(lastDelivery, Cycle{400});
  // The tick chain runs cycles 1..757; the window [0, 400) covers 399 of
  // them, and the frozen switch counts every one, busy or idle.
  EXPECT_EQ(kernel.now(), Cycle{757});
  EXPECT_EQ(kernel.stats().counterValue("fault.injected_stall_cycles"), 399u);

  const CongestionTelemetry* ct = net.congestion();
  ASSERT_NE(ct, nullptr);
  const Butterfly& topo = net.topology();
  // Stage-0 switches choke on exhausted credits toward the frozen switch.
  std::uint64_t stage0Stalls = 0;
  for (std::uint32_t i = 0; i < topo.switchesPerStage(); ++i) {
    stage0Stalls += ct->perSwitchCreditStalls[topo.flat(SwitchId{0, i})];
  }
  EXPECT_GT(stage0Stalls, 0u);
  // The frozen switch skips its grant pass entirely during the window and
  // feeds only credit-less memory ports afterwards: no stalls charged to it.
  EXPECT_EQ(ct->perSwitchCreditStalls[topo.flat(SwitchId{1, 0})], 0u);
  // Its input buffers visibly filled while frozen.
  ASSERT_EQ(ct->stageOccupancy.size(), 2u);
  EXPECT_GT(ct->stageOccupancy[1].max(), 0.0);
  // Every switch samples its occupancy on every ticked cycle, idle or not.
  for (std::size_t st = 0; st < ct->stageOccupancy.size(); ++st) {
    EXPECT_EQ(ct->stageOccupancy[st].count(), 757u * topo.switchesPerStage()) << st;
    EXPECT_EQ(ct->stageOccupancyHist[st].total(), ct->stageOccupancy[st].count()) << st;
  }
}

TEST(SystemCongestion, HotspotAndIncastAnnotateOfferedAndAcceptedLoad) {
  for (const char* profile : {"hotspot", "incast"}) {
    SystemConfig cfg;
    System sys(cfg);
    WorkloadScale s = WorkloadScale::tiny();
    s.trafficRefsPerNode = 400;
    auto w = makeWorkload(profile, s);
    const RunMetrics m = runWorkload(sys, *w);
    EXPECT_TRUE(m.congestionEnabled) << profile;
    EXPECT_EQ(m.congRuns, 1u) << profile;
    EXPECT_GT(m.congOfferedRate, 0.0) << profile;
    EXPECT_GT(m.congAcceptedRate, 0.0) << profile;
  }
}

TEST(SystemCongestion, NonCongestionWorkloadsStayCongestionFree) {
  // sor (scientific) and oltp (v5 traffic) must not grow a congestion block
  // on the message-level network — their output is byte-identity-gated.
  for (const char* name : {"sor", "oltp"}) {
    SystemConfig cfg;
    System sys(cfg);
    WorkloadScale s = WorkloadScale::tiny();
    s.trafficRefsPerNode = 400;
    auto w = makeWorkload(name, s);
    const RunMetrics m = runWorkload(sys, *w);
    EXPECT_FALSE(m.congestionEnabled) << name;
    EXPECT_EQ(m.congOfferedRate, 0.0) << name;
    EXPECT_EQ(m.congRuns, 0u) << name;
  }
}

/// A flit-level hotspot run: its metrics plus the flit network's counters.
struct FlitHotspotRun {
  RunMetrics m;
  std::uint64_t transmitted = 0;
  std::uint64_t grants = 0;
  std::uint64_t sunk = 0;
};

FlitHotspotRun runFlitHotspot(const std::string& routing, double offeredLoad) {
  SystemConfig cfg;
  cfg.net.flitLevel = true;
  cfg.net.routing = routing;
  System sys(cfg);
  WorkloadScale s = WorkloadScale::tiny();
  s.trafficRefsPerNode = 250;
  s.offeredLoad = offeredLoad;
  auto w = makeWorkload("hotspot", s);
  FlitHotspotRun r;
  r.m = runWorkload(sys, *w);
  r.transmitted = sys.stats().counterValue("flit.transmitted");
  r.grants = sys.stats().counterValue("flit.grants");
  r.sunk = sys.stats().counterValue("net.sunk");
  return r;
}

TEST(SystemCongestion, FlitHotspotPopulatesTelemetryDeterministically) {
  const RunMetrics a = runFlitHotspot("lca", 1.0).m;
  const RunMetrics b = runFlitHotspot("lca", 1.0).m;
  EXPECT_TRUE(a.congestionEnabled);
  EXPECT_GT(a.congOfferedRate, 0.0);
  EXPECT_GT(a.congAcceptedRate, 0.0);
  ASSERT_FALSE(a.congestion.stageOccupancy.empty());
  EXPECT_GT(a.congestion.stageOccupancy[0].count(), 0u);
  // Bit-reproducible: same config, same seed path, same telemetry.
  EXPECT_EQ(a.execTime, b.execTime);
  EXPECT_EQ(a.congestion.creditStallCycles, b.congestion.creditStallCycles);
  EXPECT_EQ(a.congestion.sourceCreditStalls, b.congestion.sourceCreditStalls);
  EXPECT_EQ(a.congAcceptedRate, b.congAcceptedRate);
}

/// Pinned outcome of one flit hotspot run. Any change to flit timing,
/// arbitration, routing or telemetry sampling moves these values; a change
/// to host speed alone must leave every one of them as it is.
struct FlitGolden {
  const char* routing;
  Cycle execTime;
  std::uint64_t creditStallCycles, sourceCreditStalls, linkBusySkips;
  struct Stage {
    std::uint64_t count;
    double sum, max;
    std::vector<std::uint64_t> hist;
  };
  std::vector<Stage> stages;
  std::uint64_t lockHoldCount;
  double lockHoldSum;
  std::uint64_t transmitted, grants, sunk;
};

TEST(SystemCongestion, FlitHotspotMatchesPinnedValues) {
  const FlitGolden golden[] = {
      {"lca", 52093, 9108, 71579, 30759,
       {{207604, 102344, 14, {155694, 31507, 13288, 6099, 1016, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
        {207604, 146726, 19, {164427, 18001, 10295, 9578, 5254, 49, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
       23474, 171196, 94503, 63477, 713},
      {"adaptive", 52914, 7171, 69994, 28390,
       {{208748, 83229, 12, {159386, 32582, 12224, 4358, 198, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
        {208748, 136441, 18, {164847, 18202, 10672, 11525, 3479, 23, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
       23526, 169868, 94657, 63553, 710},
  };
  for (const FlitGolden& g : golden) {
    SCOPED_TRACE(g.routing);
    const FlitHotspotRun r = runFlitHotspot(g.routing, 1.0);
    const CongestionTelemetry& c = r.m.congestion;
    EXPECT_EQ(r.m.execTime, g.execTime);
    EXPECT_EQ(c.creditStallCycles, g.creditStallCycles);
    EXPECT_EQ(c.sourceCreditStalls, g.sourceCreditStalls);
    EXPECT_EQ(c.linkBusySkips, g.linkBusySkips);
    ASSERT_EQ(c.stageOccupancy.size(), g.stages.size());
    for (std::size_t st = 0; st < g.stages.size(); ++st) {
      SCOPED_TRACE(st);
      EXPECT_EQ(c.stageOccupancy[st].count(), g.stages[st].count);
      EXPECT_EQ(c.stageOccupancy[st].sum(), g.stages[st].sum);
      EXPECT_EQ(c.stageOccupancy[st].max(), g.stages[st].max);
      EXPECT_EQ(c.stageOccupancyHist[st].buckets(), g.stages[st].hist);
    }
    EXPECT_EQ(c.lockHold.count(), g.lockHoldCount);
    EXPECT_EQ(c.lockHold.sum(), g.lockHoldSum);
    EXPECT_EQ(r.transmitted, g.transmitted);
    EXPECT_EQ(r.grants, g.grants);
    EXPECT_EQ(r.sunk, g.sunk);
  }
}

TEST(SystemCongestion, AdaptiveRoutingRunsHotspotToCompletion) {
  const RunMetrics lca = runFlitHotspot("lca", 1.0).m;
  const RunMetrics ada = runFlitHotspot("adaptive", 1.0).m;
  // Routing changes timing, never the reference stream or the protocol's
  // ability to finish.
  EXPECT_TRUE(ada.congestionEnabled);
  EXPECT_EQ(ada.reads, lca.reads);
  EXPECT_GT(ada.congAcceptedRate, 0.0);
}

TEST(SystemCongestion, AcceptedRateFallsBehindOfferedUnderPressure) {
  // Cranking the offered-load axis must raise what the streams ask for
  // faster than what the machine completes: the saturation-curve shape.
  SystemConfig cfg;
  double ratioLow = 0.0, ratioHigh = 0.0;
  for (const double ol : {0.5, 4.0}) {
    System sys(cfg);
    WorkloadScale s = WorkloadScale::tiny();
    s.trafficRefsPerNode = 600;
    s.offeredLoad = ol;
    auto w = makeWorkload("hotspot", s);
    const RunMetrics m = runWorkload(sys, *w);
    ASSERT_GT(m.congOfferedRate, 0.0);
    (ol < 1.0 ? ratioLow : ratioHigh) = m.congAcceptedRate / m.congOfferedRate;
  }
  // Higher pressure, lower fraction of offered work accepted.
  EXPECT_LT(ratioHigh, ratioLow);
  EXPECT_LT(ratioHigh, 1.0);
}

}  // namespace
}  // namespace dresar

// Congestion-lab tests: the flit network's saturation telemetry (credit
// stalls, stage occupancy, wormhole-lock hold times), the fault link-stall
// interaction with credit backpressure (a stalled switch starves its
// upstream stage, then the tree drains to quiescence), the hotspot /
// incast profiles' offered-vs-accepted load annotation at system level,
// pinned values of flit hotspot and incast runs per routing policy from 16
// to 128 nodes, and telemetry that reads the same mid-run as at the end.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <utility>
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
    EXPECT_EQ(ct->stageOccupancyHist[s].buckets().size(), 17u);  // 16 log2 + overflow
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
  EXPECT_EQ(ct->lockHoldHist.buckets().size(), 25u);  // 24 log2 + overflow
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

/// A flit-level congestion-profile run: its metrics plus the flit
/// network's counters.
struct FlitRun {
  RunMetrics m;
  std::uint64_t transmitted = 0;
  std::uint64_t grants = 0;
  std::uint64_t sunk = 0;
};

SystemConfig flitConfig(const std::string& routing, std::uint32_t nodes) {
  SystemConfig cfg;
  cfg.numNodes = nodes;
  cfg.net.flitLevel = true;
  cfg.net.routing = routing;
  return cfg;
}

std::unique_ptr<Workload> flitWorkload(const std::string& profile, double offeredLoad) {
  WorkloadScale s = WorkloadScale::tiny();
  s.trafficRefsPerNode = 250;
  s.offeredLoad = offeredLoad;
  return makeWorkload(profile, s);
}

FlitRun finishFlitRun(System& sys, RunMetrics m) {
  FlitRun r;
  r.m = std::move(m);
  r.transmitted = sys.stats().counterValue("flit.transmitted");
  r.grants = sys.stats().counterValue("flit.grants");
  r.sunk = sys.stats().counterValue("net.sunk");
  return r;
}

FlitRun runFlitProfile(const std::string& profile, const std::string& routing,
                       std::uint32_t nodes = 16, double offeredLoad = 1.0) {
  System sys(flitConfig(routing, nodes));
  auto w = flitWorkload(profile, offeredLoad);
  RunMetrics m = runWorkload(sys, *w);
  return finishFlitRun(sys, std::move(m));
}

FlitRun runFlitHotspot(const std::string& routing, double offeredLoad) {
  return runFlitProfile("hotspot", routing, 16, offeredLoad);
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

void expectFlitGolden(const FlitRun& r, const FlitGolden& g) {
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
    expectFlitGolden(runFlitHotspot(g.routing, 1.0), g);
  }
}

/// Pinned values of a larger machine: 3- and 4-stage butterflies, where the
/// turnaround windows (and so the adaptive candidate sets) are widest.
struct ScaledFlitGolden {
  std::uint32_t nodes;
  FlitGolden g;
};

void expectScaledFlitGoldens(const char* profile, const std::vector<ScaledFlitGolden>& golden) {
  for (const ScaledFlitGolden& sg : golden) {
    SCOPED_TRACE(std::string(profile) + " " + sg.g.routing + " " + std::to_string(sg.nodes));
    expectFlitGolden(runFlitProfile(profile, sg.g.routing, sg.nodes), sg.g);
  }
}

TEST(SystemCongestion, FlitHotspotBeyond16NodesMatchesPinnedValues) {
  expectScaledFlitGoldens("hotspot", {
      {32, {"lca", 112576, 23337, 143726, 65605,
        {{897888, 125539, 10, {807905, 71891, 13255, 4737, 100, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {897888, 165891, 13, {794440, 71342, 23688, 8279, 139, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {897888, 281258, 16, {807208, 41644, 20855, 19159, 9016, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        76059, 536087, 268048, 203630, 957}},
      {32, {"adaptive", 113740, 24990, 143620, 62878,
        {{905896, 120987, 11, {817157, 71723, 13227, 3475, 314, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {905896, 173208, 11, {801645, 71209, 23359, 9367, 316, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {905896, 283398, 18, {815642, 41465, 20634, 18754, 9367, 34, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        76494, 539351, 269339, 204743, 984}},
      {64, {"lca", 245404, 27743, 292376, 97962,
        {{3909456, 184979, 9, {3746401, 148711, 12501, 1836, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {3909456, 264161, 13, {3722594, 146667, 30716, 8975, 504, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {3909456, 466059, 17, {3730180, 88479, 46004, 35725, 9058, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        159233, 1066113, 549913, 418003, 1224}},
      {64, {"adaptive", 242659, 36880, 292439, 99477,
        {{3874784, 188214, 9, {3709944, 149854, 12843, 2135, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {3874784, 295247, 13, {3680830, 146995, 33316, 12362, 1281, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {3874784, 503144, 17, {3695515, 87083, 43714, 35889, 12555, 28, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        159352, 1073065, 549815, 417857, 1242}},
      {128, {"lca", 517689, 45340, 596606, 178687,
        {{16541440, 328614, 6, {16230153, 299144, 10933, 1210, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {16541440, 339645, 7, {16224681, 300267, 14894, 1598, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {16541440, 481945, 14, {16179693, 297177, 51030, 12363, 1177, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {16541440, 859050, 21, {16184984, 186092, 94599, 61309, 14341, 115, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        447565, 2862563, 1420702, 1150910, 1546}},
      {128, {"adaptive", 516649, 41728, 596335, 172873,
        {{16521184, 325120, 7, {16211383, 298618, 10229, 954, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {16521184, 336390, 7, {16206767, 298750, 14066, 1601, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {16521184, 466446, 14, {16163998, 297113, 48315, 10643, 1115, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {16521184, 826601, 21, {16166355, 187278, 95855, 60075, 11528, 93, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        446051, 2852452, 1417028, 1147699, 1489}},
  });
}

TEST(SystemCongestion, FlitIncastBeyond16NodesMatchesPinnedValues) {
  expectScaledFlitGoldens("incast", {
      {32, {"lca", 54427, 3828, 93254, 21667,
        {{429928, 48457, 5, {385030, 42111, 2611, 176, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {429928, 85399, 11, {373618, 40718, 11993, 3542, 57, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {429928, 72556, 9, {377647, 41225, 8843, 2181, 32, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        44185, 344719, 172154, 129262, 137}},
      {32, {"adaptive", 54492, 3550, 93340, 21001,
        {{430376, 48885, 7, {385379, 42015, 2792, 190, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {430376, 82775, 11, {374660, 41158, 11217, 3290, 51, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {430376, 72059, 11, {378300, 41350, 8507, 2158, 61, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        44156, 344206, 172058, 129184, 136}},
      {64, {"lca", 81332, 3260, 192514, 34697,
        {{1296176, 103170, 7, {1203287, 85248, 7055, 586, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {1296176, 123151, 12, {1197104, 84321, 12432, 2288, 31, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {1296176, 157470, 11, {1192452, 77443, 19386, 6510, 385, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        91861, 695508, 352103, 264546, 364}},
      {64, {"adaptive", 82051, 2956, 192241, 33620,
        {{1304752, 102696, 7, {1212027, 85253, 6943, 529, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {1304752, 120711, 10, {1206088, 84710, 11934, 2003, 17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {1304752, 155176, 12, {1201128, 78010, 18912, 6534, 168, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        92054, 696170, 352621, 264977, 361}},
      {128, {"lca", 133023, 11598, 391318, 90768,
        {{4240576, 201417, 7, {4051446, 179650, 8885, 595, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {4240576, 267416, 10, {4028041, 180108, 26674, 5696, 57, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {4240576, 242041, 10, {4037074, 179499, 20238, 3740, 25, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {4240576, 334867, 16, {4029740, 154882, 38550, 16382, 1018, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        256031, 1883090, 901324, 722996, 868}},
      {128, {"adaptive", 132459, 11921, 390520, 93191,
        {{4221056, 202738, 7, {4031456, 179873, 8921, 806, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {4221056, 269509, 9, {4007200, 180760, 27357, 5714, 25, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {4221056, 245775, 9, {4016075, 179273, 21784, 3916, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
         {4221056, 333125, 13, {4010020, 155519, 38434, 16225, 858, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        256021, 1884966, 901751, 723326, 877}},
  });
}

/// A run's values in pinned form, to compare two runs field for field.
FlitGolden pinnedFrom(const FlitRun& r) {
  const CongestionTelemetry& c = r.m.congestion;
  FlitGolden g{"", r.m.execTime, c.creditStallCycles, c.sourceCreditStalls, c.linkBusySkips,
               {}, c.lockHold.count(), c.lockHold.sum(), r.transmitted, r.grants, r.sunk};
  for (std::size_t st = 0; st < c.stageOccupancy.size(); ++st) {
    const Sampler& so = c.stageOccupancy[st];
    g.stages.push_back({so.count(), so.sum(), so.max(), c.stageOccupancyHist[st].buckets()});
  }
  return g;
}

/// One node's program as runWorkload runs it: the body, then a fence.
SimTask nodeProgram(Workload& w, System& sys, ThreadContext& ctx) {
  co_await w.body(sys, ctx);
  co_await ctx.fence();
  ctx.markDone(ctx.now());
}

TEST(SystemCongestion, FlitTelemetryIsTheSameWhenReadMidRun) {
  // congestion() folds the occupancy counts gathered since the previous
  // call; reading it mid-run, repeatedly, must leave the final telemetry
  // exactly as a run that reads it once at the end.
  const FlitRun once = runFlitProfile("hotspot", "adaptive");
  System sys(flitConfig("adaptive", 16));
  auto w = flitWorkload("hotspot", 1.0);
  w->setup(sys);
  for (NodeId n = 0; n < sys.config().numNodes; ++n) {
    sys.spawn(nodeProgram(*w, sys, sys.ctx(n)));
  }
  // System::run starts the tasks; past its limit it throws with the run
  // paused, and the queue then resumes from where it stopped.
  EXPECT_THROW(sys.run(5000), std::runtime_error);
  std::uint64_t reads = 0;
  for (Cycle limit = 10000; !sys.sched().run(limit); limit += 5000) {
    for (int i = 0; i < 2; ++i) {
      const CongestionTelemetry* c = sys.net().congestion();
      ASSERT_NE(c, nullptr);
      EXPECT_EQ(c->stageOccupancyHist[0].total(), c->stageOccupancy[0].count());
      ++reads;
    }
  }
  ASSERT_GT(reads, 4u);
  ASSERT_TRUE(sys.quiescent());
  ASSERT_TRUE(w->verify(sys).ok);
  RunMetrics m = RunMetrics::collect(sys, w->name());
  w->annotate(m);
  const FlitRun twice = finishFlitRun(sys, std::move(m));

  const FlitGolden g = pinnedFrom(once);
  expectFlitGolden(twice, g);
  for (std::size_t st = 0; st < g.stages.size(); ++st) {
    EXPECT_EQ(twice.m.congestion.stageOccupancy[st].min(),
              once.m.congestion.stageOccupancy[st].min());
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

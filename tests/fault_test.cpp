// Fault-injection subsystem: plan parsing/validation, the drop / delay /
// entry-loss / link-stall injectors, and the recovery contract — every
// injected-effective fault is recovered, the run ends quiescent, and the
// protocol invariants hold (Simulation::run enforces all three).
#include <gtest/gtest.h>

#include <stdexcept>

#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "sim/simulation.h"

namespace dresar {
namespace {

// ---- FaultPlan parsing / validation ---------------------------------------

TEST(FaultPlan, DefaultIsDisabled) {
  FaultPlan p;
  EXPECT_FALSE(p.enabled());
  p.seed = 42;  // a seed alone enables nothing
  EXPECT_FALSE(p.enabled());
  p.msgDropRate = 0.01;
  EXPECT_TRUE(p.enabled());
}

TEST(FaultPlan, ParseLinkStall) {
  const LinkStallSpec s = FaultPlan::parseLinkStall("1,3,1000,500");
  EXPECT_EQ(s.stage, 1u);
  EXPECT_EQ(s.index, 3u);
  EXPECT_EQ(s.startCycle, 1000u);
  EXPECT_EQ(s.lengthCycles, 500u);
  EXPECT_TRUE(s.active());

  const LinkStallSpec spaced = FaultPlan::parseLinkStall(" 0 , 1 , 2 , 3 ");
  EXPECT_EQ(spaced.stage, 0u);
  EXPECT_EQ(spaced.index, 1u);
  EXPECT_EQ(spaced.startCycle, 2u);
  EXPECT_EQ(spaced.lengthCycles, 3u);
}

TEST(FaultPlan, ParseLinkStallRejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parseLinkStall(""), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parseLinkStall("1,2,3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parseLinkStall("1,x,3,4"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parseLinkStall("1,2,3,4,5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parseLinkStall("1,2,3,4x"), std::invalid_argument);
}

TEST(FaultPlan, AppendValidationErrorsCollectsEveryViolation) {
  FaultPlan p;
  p.msgDropRate = 2.0;
  p.msgDelayRate = -1.0;
  p.sdEntryLossRate = 1.5;
  p.requestTimeoutCycles = 0;
  std::vector<std::string> errs;
  p.appendValidationErrors(errs);
  EXPECT_EQ(errs.size(), 4u);
}

// ---- campaigns on a real system -------------------------------------------

SystemConfig smallConfig(std::uint32_t sdEntries) {
  SystemConfig cfg;
  cfg.numNodes = 4;
  cfg.net.switchRadix = 4;
  cfg.switchDir.entries = sdEntries;
  return cfg;
}

TEST(FaultCampaign, DropsAreRecoveredAndRunStaysCoherent) {
  SystemConfig cfg = smallConfig(256);
  cfg.fault.msgDropRate = 0.02;
  cfg.fault.seed = 7;
  Simulation sim(cfg);
  // run() itself enforces requireBalanced() + a clean protocol check.
  const RunMetrics m = sim.run({.workload = "sor", .scale = WorkloadScale::tiny()});
  ASSERT_TRUE(m.faultEnabled);
  EXPECT_GT(m.faultInjectedDrops, 0u) << "a 2% drop rate must actually drop";
  EXPECT_EQ(m.faultRecovered, m.faultInjectedEffective());
  EXPECT_GT(m.faultTimeoutReissues, 0u);
  EXPECT_TRUE(sim.system().quiescent());
  EXPECT_TRUE(sim.check().ok()) << sim.check().summary();
}

TEST(FaultCampaign, DelaysPerturbTimingWithoutRecoveryDebt) {
  SystemConfig cfg = smallConfig(256);
  cfg.fault.msgDelayRate = 0.2;
  cfg.fault.msgDelayCycles = 32;
  cfg.fault.seed = 7;
  Simulation sim(cfg);
  const RunMetrics m = sim.run({.workload = "sor", .scale = WorkloadScale::tiny()});
  EXPECT_GT(m.faultInjectedDelays, 0u);
  EXPECT_GT(m.faultInjectedDelayCycles, m.faultInjectedDelays);
  EXPECT_EQ(m.faultInjectedEffective(), 0u);  // delays never strand anything
  EXPECT_EQ(m.faultRecovered, 0u);
}

TEST(FaultCampaign, TotalSdEntryLossKillsSwitchServesButNotCoherence) {
  SystemConfig cfg = smallConfig(256);
  cfg.fault.sdEntryLossRate = 1.0;  // every would-be switch serve is lost
  cfg.fault.seed = 7;
  Simulation sim(cfg);
  const RunMetrics m = sim.run({.workload = "sor", .scale = WorkloadScale::tiny()});
  EXPECT_EQ(m.svcCtoCSwitch, 0u);
  EXPECT_GT(m.faultInjectedSdLosses, 0u);
  EXPECT_EQ(m.faultFallbackHomeLookups(), m.faultInjectedSdLosses);
  // Losses fall back to the home; the reads still complete correctly.
  EXPECT_GT(m.svcCtoCHome + m.svcClean, 0u);
}

TEST(FaultCampaign, TotalEntryLossReachesTheSwitchCache) {
  // The switch cache takes the injector at construction like every other
  // component: with every would-be serve lost, no read is served in-network
  // although the same machine without faults serves some there.
  SystemConfig cfg;
  cfg.switchDir.entries = 1024;
  cfg.switchCache.entries = 1024;
  const RunRequest run{.workload = "gauss", .scale = WorkloadScale::tiny()};
  ASSERT_GT(Simulation(cfg).run(run).svcSwitchCache, 0u);

  cfg.fault.sdEntryLossRate = 1.0;
  cfg.fault.seed = 5;
  Simulation sim(cfg);
  // run() itself enforces requireBalanced() + a clean protocol check.
  const RunMetrics m = sim.run(run);
  EXPECT_EQ(m.svcSwitchCache, 0u);
  EXPECT_EQ(sim.system().switchCache().serves(), 0u);
  EXPECT_GT(m.faultInjectedSdLosses, 0u);
  EXPECT_EQ(m.faultRecovered, m.faultInjectedEffective());
  EXPECT_EQ(sim.system().faultInjector()->outstandingStranded(), 0u);
  EXPECT_TRUE(sim.check().ok()) << sim.check().summary();
}

TEST(FaultCampaign, LinkStallCountsStallCyclesOnMessageNetwork) {
  SystemConfig cfg;  // 16-node default, message-level network
  cfg.switchDir.entries = 512;
  cfg.fault.linkStall = {0, 1, 0, 5000};
  Simulation sim(cfg);
  const RunMetrics m = sim.run({.workload = "fft", .scale = WorkloadScale::tiny()});
  EXPECT_GT(m.faultInjectedStallCycles, 0u);
  EXPECT_GT(m.reads, 0u);
}

TEST(FaultCampaign, LinkStallCountsStallCyclesOnFlitNetwork) {
  SystemConfig cfg;
  cfg.net.flitLevel = true;
  cfg.switchDir.entries = 512;
  cfg.fault.linkStall = {0, 1, 0, 2000};
  Simulation sim(cfg);
  const RunMetrics m = sim.run({.workload = "fft", .scale = WorkloadScale::tiny()});
  EXPECT_GT(m.faultInjectedStallCycles, 0u);
  EXPECT_GT(m.reads, 0u);
}

TEST(FaultCampaign, CombinedCampaignOnFlitNetworkRecovers) {
  SystemConfig cfg = smallConfig(256);
  cfg.net.flitLevel = true;
  cfg.fault.msgDropRate = 0.01;
  cfg.fault.msgDelayRate = 0.05;
  cfg.fault.sdEntryLossRate = 0.1;
  cfg.fault.seed = 11;
  Simulation sim(cfg);
  const RunMetrics m = sim.run({.workload = "fft", .scale = WorkloadScale::tiny()});
  EXPECT_EQ(m.faultRecovered, m.faultInjectedEffective());
  EXPECT_TRUE(sim.system().quiescent());
}

TEST(FaultCampaign, BaseSystemWithoutSwitchDirAlsoRecovers) {
  SystemConfig cfg = smallConfig(0);
  cfg.fault.msgDropRate = 0.03;
  cfg.fault.seed = 3;
  Simulation sim(cfg);
  const RunMetrics m = sim.run({.workload = "sor", .scale = WorkloadScale::tiny()});
  EXPECT_GT(m.faultInjectedDrops, 0u);
  EXPECT_EQ(m.faultRecovered, m.faultInjectedEffective());
}

// ---- injector unit behavior -----------------------------------------------

TEST(FaultInjector, EligibilityIsRequestLegOnly) {
  Message m;
  m.type = MsgType::ReadRequest;
  m.dst = memEp(2);
  EXPECT_TRUE(FaultInjector::eligible(m));
  m.type = MsgType::WriteRequest;
  EXPECT_TRUE(FaultInjector::eligible(m));
  m.marked = true;
  EXPECT_FALSE(FaultInjector::eligible(m)) << "marked requests carry switch state";
  m.marked = false;
  m.type = MsgType::ReadReply;
  EXPECT_FALSE(FaultInjector::eligible(m)) << "replies ride FIFO ordering guarantees";
  m.type = MsgType::Invalidation;
  m.dst = procEp(1);
  EXPECT_FALSE(FaultInjector::eligible(m));
  m.type = MsgType::Retry;
  EXPECT_TRUE(FaultInjector::eligible(m)) << "a lost NAK is recovered by the timeout";
}

TEST(FaultInjector, StallWindowArithmetic) {
  FaultPlan p;
  p.linkStall = {0, 0, 100, 50};
  StatRegistry stats;
  FaultInjector inj(p, stats);
  EXPECT_EQ(inj.stallAdjustedStart(99), 99u);    // before the window
  EXPECT_EQ(inj.stallAdjustedStart(100), 150u);  // pushed to the end
  EXPECT_EQ(inj.stallAdjustedStart(149), 150u);
  EXPECT_EQ(inj.stallAdjustedStart(150), 150u);  // window is half-open
  EXPECT_FALSE(inj.stallTickSkipped(99));
  EXPECT_TRUE(inj.stallTickSkipped(100));
  EXPECT_TRUE(inj.stallTickSkipped(149));
  EXPECT_FALSE(inj.stallTickSkipped(150));
}

TEST(FaultInjector, RequireBalancedThrowsOnStrandedWork) {
  FaultPlan p;
  p.msgDropRate = 1.0;  // every eligible message drops
  StatRegistry stats;
  FaultInjector inj(p, stats);
  Message m;
  m.type = MsgType::ReadRequest;
  m.dst = memEp(0);
  m.requester = 1;
  m.addr = 0x40;
  ASSERT_TRUE(inj.shouldDrop(m));
  EXPECT_EQ(inj.injectedEffective(), 1u);
  EXPECT_EQ(inj.outstandingStranded(), 1u);
  EXPECT_THROW(inj.requireBalanced(), std::runtime_error);
  inj.consumeStranded(1, 0x40);
  EXPECT_EQ(inj.recovered(), 1u);
  EXPECT_NO_THROW(inj.requireBalanced());
  // A second consume for the same pair is a no-op, not a double count.
  inj.consumeStranded(1, 0x40);
  EXPECT_EQ(inj.recovered(), 1u);
}

}  // namespace
}  // namespace dresar

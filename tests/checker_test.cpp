#include "sim/checker.h"

#include <gtest/gtest.h>

#include "sim/system.h"
#include "workloads/workload.h"

namespace dresar {
namespace {

TEST(ProtocolChecker, CleanRunPasses) {
  SystemConfig cfg;
  cfg.switchDir.entries = 1024;
  System sys(cfg);
  auto w = makeWorkload("sor", WorkloadScale::tiny());
  runWorkload(sys, *w);
  const CheckReport r = ProtocolChecker::check(sys);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.summary(), "protocol invariants hold");
}

TEST(ProtocolChecker, FreshSystemPasses) {
  SystemConfig cfg;
  System sys(cfg);
  const CheckReport r = ProtocolChecker::check(sys);
  EXPECT_TRUE(r.ok());
}

TEST(ProtocolChecker, AllKernelsBothConfigs) {
  for (const auto& name : workloadNames()) {
    for (const std::uint32_t sd : {0u, 512u}) {
      SystemConfig cfg;
      cfg.switchDir.entries = sd;
      System sys(cfg);
      auto w = makeWorkload(name, WorkloadScale::tiny());
      runWorkload(sys, *w);
      const CheckReport r = ProtocolChecker::check(sys);
      EXPECT_TRUE(r.ok()) << name << " sd=" << sd << ": " << r.summary();
    }
  }
}

TEST(ProtocolChecker, NonQuiescentSystemStillRunsSafeChecks) {
  SystemConfig cfg;
  cfg.switchDir.entries = 512;
  LoadWaiter load;  // never completes: the run stops mid-transaction
  load.complete = [](LoadWaiter&) {};
  System sys(cfg);
  // Kick off one read miss and stop the simulation the moment the MSHR makes
  // the system non-quiescent (mid-transaction).
  sys.cache(0).cpuRead(0x4000, load);
  sys.kernel().runWhile([&] { return sys.quiescent(); });
  ASSERT_FALSE(sys.quiescent());

  const CheckReport r = ProtocolChecker::check(sys);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].find("not quiescent"), std::string::npos) << r.violations[0];
  // The transient-sensitive checks are skipped — and say so — while the
  // always-valid ones (double-M, home-contradicts-owner) still ran.
  EXPECT_FALSE(r.skipped.empty());
  EXPECT_NE(r.summary().find("skipped check(s)"), std::string::npos) << r.summary();
}

TEST(ProtocolChecker, SummaryListsViolations) {
  CheckReport r;
  r.violations.push_back("first");
  r.violations.push_back("second");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.summary().find("2 violation(s)"), std::string::npos);
  EXPECT_NE(r.summary().find("first"), std::string::npos);
}

}  // namespace
}  // namespace dresar

// Tests for the sweep/orchestration subsystem: spec parsing & expansion,
// the parallel job runner, parallel-vs-serial output determinism, canonical
// record order, aggregation, and the baseline regression gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/aggregate.h"
#include "harness/baseline.h"
#include "harness/job.h"
#include "harness/job_store.h"
#include "harness/run_context.h"
#include "harness/sweep_spec.h"
#include "sim/json_reader.h"

namespace dresar::harness {
namespace {

// ---------------------------------------------------------------- JobSpec --

TEST(JobSpec, ConfigTagsMatchBenchConvention) {
  JobSpec j;
  EXPECT_EQ(j.configTag(), "base");
  j.sdEntries = 512;
  EXPECT_EQ(j.configTag(), "sd-512");
  j.assoc = 2;
  EXPECT_EQ(j.configTag(), "sd-512-a2");
  j.pendingBuffer = 4;
  EXPECT_EQ(j.configTag(), "sd-512-a2-pb4");
}

TEST(JobSpec, FaultSuffixesApplyToBaseAndSwitchDirTags) {
  JobSpec j;
  j.fault.msgDropRate = 0.02;
  EXPECT_EQ(j.configTag(), "base-fd0.02");
  j.sdEntries = 512;
  j.fault.msgDelayRate = 0.1;
  j.fault.sdEntryLossRate = 0.5;
  EXPECT_EQ(j.configTag(), "sd-512-fd0.02-fy0.1-fl0.5");
}

TEST(JobSpec, PolicySuffixesApplyOnlyWhenNonDefault) {
  JobSpec j;
  j.sdEntries = 1024;
  EXPECT_EQ(j.configTag(), "sd-1024");  // lru/fifo defaults stay silent
  j.sdReplacement = "random";
  EXPECT_EQ(j.configTag(), "sd-1024-random");
  j.sdArbitration = "phase";
  EXPECT_EQ(j.configTag(), "sd-1024-random-phase");
  j.sdReplacement = "lru";
  EXPECT_EQ(j.configTag(), "sd-1024-phase");
}

TEST(JobSpec, AblationSuffixesApplyOnlyWhenNonDefault) {
  JobSpec j;
  j.snoopInval = true;
  j.switchCacheEntries = 1024;
  EXPECT_EQ(j.configTag(), "base-sc1024");  // snooping needs switch directories
  j.sdEntries = 1024;
  EXPECT_EQ(j.configTag(), "sd-1024-si-sc1024");
  j = JobSpec{};
  j.coreDelay = 2;
  j.linkCycles = 8;
  j.flitLevel = true;
  j.bufferFlits = 16;
  EXPECT_EQ(j.configTag(), "base-flit-cd2-lc8-bf16");
  j = JobSpec{};
  j.sdEntries = 1024;
  j.pendingBuffer = 0;
  EXPECT_EQ(j.configTag(), "sd-1024-pb0");
}

TEST(JobSpec, RateTagsAreShortestRoundTrip) {
  EXPECT_EQ(JobSpec::rateTag(0.02), "0.02");
  EXPECT_EQ(JobSpec::rateTag(0.5), "0.5");
  EXPECT_EQ(JobSpec::rateTag(6.0), "6");
  EXPECT_EQ(JobSpec::rateTag(1.1), "1.1");
  // %g would print both as 0.123456 and the two cells would share a key.
  std::istringstream in(
      "workloads = oltp\n"
      "entries = 0\n"
      "skew = 0.1234561, 0.1234562\n");
  const std::vector<JobSpec> jobs = SweepSpec::parse(in, "skew.spec").expand();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].configTag(), "base-z0.1234561");
  EXPECT_EQ(jobs[1].configTag(), "base-z0.1234562");
}

TEST(JobSpec, PendingBufferZeroRunsWithoutTheBuffer) {
  // pending_buffer = 0 sends every snoop to the main directory ports; these
  // are the values of the run with the pending buffer switched off.
  JobSpec j;
  j.sdEntries = 1024;
  j.pendingBuffer = 0;
  j.scale = WorkloadScale::tiny();
  j.app = "fft";
  const RunRecord fft = executeJob(j, 1).record;
  EXPECT_EQ(fft.value("exec_time"), 20325.0);
  EXPECT_NEAR(fft.value("avg_read_latency"), 25.467285, 1e-6);
  j.app = "sor";
  const RunRecord sor = executeJob(j, 1).record;
  EXPECT_EQ(sor.value("exec_time"), 43876.0);
  EXPECT_NEAR(sor.value("avg_read_latency"), 17.330261, 1e-6);
  EXPECT_EQ(sor.value("home_ctoc"), 7.0);
}

TEST(JobSpec, DisplayApp) {
  JobSpec j;
  j.app = "fft";
  EXPECT_EQ(j.displayApp(), "FFT");
  j.kind = JobKind::Trace;
  j.app = "tpcd";
  EXPECT_EQ(j.displayApp(), "TPC-D");
  j.app = "tpcc";
  EXPECT_EQ(j.displayApp(), "TPC-C");
}

// -------------------------------------------------------------- SweepSpec --

TEST(SweepSpec, ParsesFullSpec) {
  std::istringstream in(
      "# comment\n"
      "name = demo\n"
      "workloads = fft, tpcc\n"
      "entries = 0, 512\n"
      "assoc = 2, 4\n"
      "pending_buffer = 8\n"
      "seeds = 3\n"
      "scale = tiny\n"
      "trace_refs = 50000\n");
  const SweepSpec s = SweepSpec::parse(in, "demo.spec");
  EXPECT_EQ(s.name, "demo");
  EXPECT_EQ(s.workloads, (std::vector<std::string>{"fft", "tpcc"}));
  EXPECT_EQ(s.entries, (std::vector<std::uint32_t>{0, 512}));
  EXPECT_EQ(s.assoc, (std::vector<std::uint32_t>{2, 4}));
  EXPECT_EQ(s.pendingBuffer, (std::vector<std::uint32_t>{8}));
  EXPECT_EQ(s.seeds, 3u);
  EXPECT_EQ(s.scale, "tiny");
  EXPECT_EQ(s.traceRefs, 50000u);
  // Base once per workload (assoc and pending_buffer do not mark it), plus
  // one switch-directory cell per assoc value, each with 3 replicas.
  EXPECT_EQ(s.expand().size(), 2u * (1u + 2u) * 3u);
}

TEST(SweepSpec, RejectsMalformedInput) {
  const auto parseText = [](const std::string& text) {
    std::istringstream in(text);
    return SweepSpec::parse(in, "bad.spec");
  };
  EXPECT_THROW(parseText("bogus_key = 1\n"), std::runtime_error);
  EXPECT_THROW(parseText("workloads = fft, quake\n"), std::runtime_error);
  EXPECT_THROW(parseText("entries = -1\n"), std::runtime_error);
  EXPECT_THROW(parseText("seeds = 0\n"), std::runtime_error);
  EXPECT_THROW(parseText("scale = huge\n"), std::runtime_error);
  EXPECT_THROW(parseText("name = a\nname = b\n"), std::runtime_error);
  EXPECT_THROW(parseText("just some text\n"), std::runtime_error);
  // A repeated cell would repeat its config tag, and tags key the job store.
  EXPECT_THROW(parseText("entries = 512, 512\n"), std::runtime_error);
}

TEST(SweepSpec, ErrorsNameSourceAndLine) {
  std::istringstream in("name = ok\nbogus = 1\n");
  try {
    (void)SweepSpec::parse(in, "demo.spec");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("demo.spec:2"), std::string::npos) << e.what();
  }
}

TEST(SweepSpec, RetiredSimThreadsKeyIsUnknown) {
  // The kernel has no thread axis any more; an old spec that still sets one
  // (even to the sequential value) must fail loudly, not silently run.
  std::istringstream in("workloads = sor\nsim_threads = 1\n");
  try {
    (void)SweepSpec::parse(in, "old.spec");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("old.spec:2"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown key 'sim_threads'"), std::string::npos) << what;
  }
}

TEST(SweepSpec, ExpandIsWorkloadMajorCrossProduct) {
  SweepSpec s;
  s.workloads = {"fft", "tpcc"};
  s.entries = {0, 512};
  s.seeds = 2;
  const std::vector<JobSpec> jobs = s.expand();
  ASSERT_EQ(jobs.size(), s.expand().size());
  // workload-major: all fft cells first, then tpcc.
  EXPECT_EQ(jobs[0].app, "fft");
  EXPECT_EQ(jobs[0].sdEntries, 0u);
  EXPECT_EQ(jobs[0].seed, 1u);
  EXPECT_EQ(jobs[1].seed, 2u);
  EXPECT_EQ(jobs[2].sdEntries, 512u);
  EXPECT_EQ(jobs[4].app, "tpcc");
  EXPECT_EQ(jobs[4].kind, JobKind::Trace);
  EXPECT_EQ(jobs[0].kind, JobKind::Scientific);
}

TEST(SweepSpec, BaseCellsAreListedOnce) {
  // assoc does not mark "base", so the base job must not repeat per cell.
  std::istringstream in(
      "workloads = sor, tpcc\n"
      "entries = 0, 1024\n"
      "assoc = 1, 2, 4, 8\n");
  const SweepSpec s = SweepSpec::parse(in, "assoc.spec");
  const std::vector<JobSpec> jobs = s.expand();
  ASSERT_EQ(jobs.size(), 10u);
  EXPECT_EQ(s.expand().size(), jobs.size());
  std::set<std::string> keys;
  for (const JobSpec& j : jobs) EXPECT_TRUE(keys.insert(jobKeyOf(j)).second) << jobKeyOf(j);
  EXPECT_EQ(jobs[0].configTag(), "base");
  EXPECT_EQ(jobs[1].configTag(), "sd-1024-a1");
  EXPECT_EQ(jobs[5].app, "tpcc");
  EXPECT_EQ(jobs[5].configTag(), "base");
}

TEST(SweepSpec, AblationAxesAreScopedAndValidated) {
  const auto parseText = [](const std::string& text) {
    std::istringstream in(text);
    return SweepSpec::parse(in, "ablation.spec");
  };
  const SweepSpec ok = parseText(
      "workloads = sor\n"
      "entries = 0, 1024\n"
      "pending_buffer = 16, 0\n"
      "snoop_inval = 0, 1\n"
      "switch_cache = 0, 512\n"
      "core_delay = 2, 4\n"
      "link_cycles = 4, 8\n");
  EXPECT_EQ(ok.expand().size(), 2u * 2u * 2u * (1u + 2u * 2u));
  // Off-default ablation axes are recorded in the document options.
  const auto opts = ok.documentOptions();
  const auto has = [&opts](const std::string& k, const std::string& v) {
    return std::find(opts.begin(), opts.end(), std::make_pair(k, v)) != opts.end();
  };
  EXPECT_TRUE(has("snoop_inval", "0,1"));
  EXPECT_TRUE(has("core_delay", "2,4"));
  // Execution-driven workloads only.
  EXPECT_THROW(parseText("workloads = tpcc\nsnoop_inval = 1\n"), std::runtime_error);
  EXPECT_THROW(parseText("workloads = oltp\ncore_delay = 2\n"), std::runtime_error);
  EXPECT_THROW(parseText("workloads = sor\nsnoop_inval = 2\n"), std::runtime_error);
  // Flit buffers exist only on flit-level cells.
  EXPECT_THROW(parseText("workloads = sor\nbuffer_flits = 8\n"), std::runtime_error);
  EXPECT_THROW(parseText("workloads = sor\nflit_level = 0, 1\nbuffer_flits = 8\n"),
               std::runtime_error);
  EXPECT_EQ(parseText("workloads = sor\nflit_level = 1\nbuffer_flits = 1, 8\n").expand().size(),
            10u);
}

TEST(SweepSpec, ParsesSdPolicyAxis) {
  std::istringstream in(
      "workloads = sor\n"
      "entries = 1024\n"
      "sd_policy = lru, fifo-phase, random-phase\n");
  const SweepSpec s = SweepSpec::parse(in, "policy.spec");
  ASSERT_EQ(s.sdPolicy.size(), 3u);
  EXPECT_EQ(s.sdPolicy[0], (SdPolicyChoice{"lru", "fifo"}));  // bare name: default arb
  EXPECT_EQ(s.sdPolicy[1], (SdPolicyChoice{"fifo", "phase"}));
  EXPECT_EQ(s.sdPolicy[2], (SdPolicyChoice{"random", "phase"}));
  EXPECT_EQ(s.expand().size(), 3u);
  const std::vector<JobSpec> jobs = s.expand();
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].sdReplacement, "lru");
  EXPECT_EQ(jobs[0].sdArbitration, "fifo");
  EXPECT_EQ(jobs[2].sdReplacement, "random");
  EXPECT_EQ(jobs[2].sdArbitration, "phase");
  EXPECT_EQ(jobs[2].configTag(), "sd-1024-random-phase");
}

TEST(SweepSpec, SdPolicyAxisRejectsUnknownAndDuplicateCells) {
  const auto parseText = [](const std::string& text) {
    std::istringstream in(text);
    return SweepSpec::parse(in, "bad.spec");
  };
  EXPECT_THROW(parseText("sd_policy = plru\n"), std::runtime_error);
  EXPECT_THROW(parseText("sd_policy = lru-lottery\n"), std::runtime_error);
  EXPECT_THROW(parseText("sd_policy = lru, lru-fifo\n"), std::runtime_error);  // same cell
  try {
    (void)parseText("sd_policy = lru-lottery\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.spec:1"), std::string::npos) << what;
    EXPECT_NE(what.find("fifo, phase"), std::string::npos) << what;  // valid list named
  }
}

TEST(SweepSpec, ParsesFaultAxes) {
  std::istringstream in(
      "workloads = sor, fft\n"
      "entries = 0, 512\n"
      "fault_drop_rate = 0, 0.02\n"
      "fault_delay_rate = 0.1\n"
      "fault_sd_loss_rate = 0.5\n"
      "fault_seed = 7\n"
      "fault_link_stall = 0,1,1000,500\n");
  const SweepSpec s = SweepSpec::parse(in, "fault.spec");
  EXPECT_TRUE(s.injectsFaults());
  EXPECT_EQ(s.faultDropRate, (std::vector<double>{0.0, 0.02}));
  EXPECT_EQ(s.faultDelayRate, (std::vector<double>{0.1}));
  EXPECT_EQ(s.faultSdLossRate, (std::vector<double>{0.5}));
  EXPECT_EQ(s.faultSeed, 7u);
  EXPECT_EQ(s.faultLinkStall.index, 1u);
  EXPECT_EQ(s.faultLinkStall.lengthCycles, 500u);
  EXPECT_EQ(s.expand().size(), 2u * 2u * 2u);  // workloads x entries x drop rates
}

TEST(SweepSpec, FaultAxesRejectTraceWorkloadsAndBadRates) {
  const auto parseText = [](const std::string& text) {
    std::istringstream in(text);
    return SweepSpec::parse(in, "bad.spec");
  };
  // Default workload list includes tpcc/tpcd — incompatible with faults.
  EXPECT_THROW(parseText("fault_drop_rate = 0.02\n"), std::runtime_error);
  EXPECT_THROW(parseText("workloads = sor, tpcc\nfault_drop_rate = 0.02\n"),
               std::runtime_error);
  EXPECT_THROW(parseText("workloads = sor\nfault_drop_rate = 1.5\n"), std::runtime_error);
  EXPECT_THROW(parseText("workloads = sor\nfault_drop_rate = nope\n"), std::runtime_error);
  EXPECT_THROW(parseText("workloads = sor\nfault_link_stall = 1,2,3\n"), std::runtime_error);
  // Geometry probe: stall port index beyond the stage's switch count.
  EXPECT_THROW(parseText("workloads = sor\nfault_link_stall = 0,99,0,100\n"),
               std::runtime_error);
  // All-zero axes stay fault-free and compatible with trace workloads.
  EXPECT_NO_THROW(parseText("fault_drop_rate = 0\n"));
}

TEST(SweepSpec, ExpandThreadsFaultPlanAndDerivesReplicaSeeds) {
  SweepSpec s;
  s.workloads = {"sor"};
  s.entries = {512};
  s.faultDropRate = {0.0, 0.02};
  s.faultSeed = 7;
  s.seeds = 2;
  const std::vector<JobSpec> jobs = s.expand();
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].fault.msgDropRate, 0.0);
  EXPECT_FALSE(jobs[0].fault.enabled());
  EXPECT_EQ(jobs[2].fault.msgDropRate, 0.02);
  EXPECT_TRUE(jobs[2].fault.enabled());
  EXPECT_EQ(jobs[2].fault.seed, 7u);   // replica 1 keeps the base seed
  EXPECT_EQ(jobs[3].fault.seed, 8u);   // replica 2 draws an independent stream
  EXPECT_EQ(jobs[2].configTag(), "sd-512-fd0.02");
}

TEST(JobSpec, CongestionSuffixesApplyOnlyWhenNonDefault) {
  JobSpec j;
  j.sdEntries = 512;
  EXPECT_EQ(j.configTag(), "sd-512");  // lca / nominal load / message-level stay silent
  j.routing = "adaptive";
  EXPECT_EQ(j.configTag(), "sd-512-adaptive");
  j.offeredLoad = 2.0;
  EXPECT_EQ(j.configTag(), "sd-512-adaptive-ol2");
  j.offeredLoad = 0.5;
  j.flitLevel = true;
  EXPECT_EQ(j.configTag(), "sd-512-adaptive-ol0.5-flit");
  j.routing = "lca";
  EXPECT_EQ(j.configTag(), "sd-512-ol0.5-flit");
}

TEST(SweepSpec, ParsesCongestionAxes) {
  std::istringstream in(
      "workloads = hotspot, incast\n"
      "entries = 512\n"
      "routing = lca, adaptive\n"
      "offered_load = 0.5, 2\n"
      "flit_level = 0, 1\n");
  const SweepSpec s = SweepSpec::parse(in, "cong.spec");
  EXPECT_EQ(s.routing, (std::vector<std::string>{"lca", "adaptive"}));
  EXPECT_EQ(s.offeredLoad, (std::vector<double>{0.5, 2.0}));
  EXPECT_EQ(s.flitLevel, (std::vector<std::uint32_t>{0, 1}));
  // 2 workloads x 2 routing x 2 load x 2 flit.
  EXPECT_EQ(s.expand().size(), 16u);
  const std::vector<JobSpec> jobs = s.expand();
  ASSERT_EQ(jobs.size(), 16u);
  EXPECT_EQ(jobs[0].app, "hotspot");
  EXPECT_EQ(jobs[0].routing, "lca");
  EXPECT_EQ(jobs[0].offeredLoad, 0.5);
  EXPECT_FALSE(jobs[0].flitLevel);
  EXPECT_EQ(jobs[0].configTag(), "sd-512-ol0.5");
  const JobSpec& last = jobs.back();
  EXPECT_EQ(last.app, "incast");
  EXPECT_EQ(last.routing, "adaptive");
  EXPECT_EQ(last.offeredLoad, 2.0);
  EXPECT_TRUE(last.flitLevel);
  EXPECT_EQ(last.configTag(), "sd-512-adaptive-ol2-flit");
}

TEST(SweepSpec, CongestionAxesRejectIncompatibleCombinations) {
  const auto parseText = [](const std::string& text) {
    std::istringstream in(text);
    return SweepSpec::parse(in, "bad.spec");
  };
  EXPECT_THROW(parseText("workloads = hotspot\nrouting = valiant\n"), std::runtime_error);
  EXPECT_THROW(parseText("workloads = hotspot\nrouting = lca, lca\n"), std::runtime_error);
  EXPECT_THROW(parseText("workloads = hotspot\nflit_level = 2\n"), std::runtime_error);
  EXPECT_THROW(parseText("workloads = hotspot\noffered_load = 0\n"), std::runtime_error);
  // offered_load scales the congestion profiles' arrival clocks only.
  EXPECT_THROW(parseText("workloads = sor\noffered_load = 2\n"), std::runtime_error);
  // Routing/flit axes need a network: trace and traffic simulators have none.
  EXPECT_THROW(parseText("workloads = tpcc\nrouting = adaptive\n"), std::runtime_error);
  EXPECT_THROW(parseText("workloads = oltp\nflit_level = 1\n"), std::runtime_error);
  // Execution-driven non-congestion workloads may still pick a routing policy.
  EXPECT_NO_THROW(parseText("workloads = sor\nrouting = adaptive\n"));
}

// Two specs crossing every axis at two values each where the validators
// allow, pinned against the expansion before the axis table existed: job
// count, first and last cell, and an FNV-1a digest over every cell's
// "app tag seed" line in expansion order. The tag is the job-store key and
// the order feeds --shard, so neither may move. sd_policy holds one
// non-default cell: crossing it with nodes is the one documented reorder
// (see NodesBySdPolicyIsPolicyMajor).
struct ExpansionPin {
  std::size_t count;
  std::string first;
  std::string last;
  std::uint64_t digest;
};

ExpansionPin pinOf(const SweepSpec& s) {
  const std::vector<JobSpec> jobs = s.expand();
  std::vector<std::string> rows;
  for (const JobSpec& j : jobs) {
    rows.push_back(j.displayApp() + " " + j.configTag() + " " + std::to_string(j.seed));
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) h = (h ^ '\n') * 0x100000001b3ULL;
    for (const char c : rows[i]) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return {jobs.size(), rows.front(), rows.back(), h};
}

TEST(SweepSpec, HotspotAxesKeepTagsAndOrder) {
  std::istringstream in(
      "workloads = hotspot\n"
      "entries = 0, 512\n"
      "assoc = 2, 4\n"
      "pending_buffer = 8, 16\n"
      "nodes = 16, 32\n"
      "sd_policy = random-phase\n"
      "fault_drop_rate = 0, 0.02\n"
      "fault_delay_rate = 0, 0.1\n"
      "fault_sd_loss_rate = 0, 0.5\n"
      "fault_seed = 7\n"
      "routing = lca, adaptive\n"
      "offered_load = 0.5, 2\n"
      "flit_level = 0, 1\n"
      "seeds = 2\n");
  const SweepSpec s = SweepSpec::parse(in, "pin_hotspot.spec");
  // 2048 odometer cells; the 768 that repeat a base tag (assoc x
  // pending_buffer cells on entries = 0) are listed once.
  EXPECT_EQ(s.expand().size(), 1280u);
  const ExpansionPin p = pinOf(s);
  EXPECT_EQ(p.count, 1280u);
  EXPECT_EQ(p.first, "HOTSPOT base-ol0.5 1");
  EXPECT_EQ(p.last, "HOTSPOT sd-512-random-phase-n32-fd0.02-fy0.1-fl0.5-adaptive-ol2-flit 2");
  EXPECT_EQ(p.digest, 0xe043b4e5d665066dULL);
}

TEST(SweepSpec, TrafficAxesKeepTagsAndOrder) {
  std::istringstream in(
      "workloads = oltp, kv\n"
      "entries = 0, 512\n"
      "assoc = 2, 4\n"
      "pending_buffer = 8, 16\n"
      "nodes = 16, 32\n"
      "sd_policy = random-phase\n"
      "tenants = 2, 4\n"
      "skew = 0.6, 1.1\n"
      "burst = 1, 6\n"
      "mix = readmostly, writeheavy\n"
      "seeds = 2\n"
      "trace_refs = 1000\n");
  const SweepSpec s = SweepSpec::parse(in, "pin_traffic.spec");
  EXPECT_EQ(s.expand().size(), 640u);  // 1024 cells, base tags listed once
  const ExpansionPin p = pinOf(s);
  EXPECT_EQ(p.count, 640u);
  EXPECT_EQ(p.first, "OLTP base-t2-z0.6-b1 1");
  EXPECT_EQ(p.last, "KV sd-512-random-phase-n32-t4-z1.1-b6-wh 2");
  EXPECT_EQ(p.digest, 0x46ae7f57f259dc8dULL);
}

TEST(SweepSpec, NodesBySdPolicyIsPolicyMajor) {
  // The axis table runs in config-tag order, where the policy suffix precedes
  // -n; no committed spec crosses the two axes.
  std::istringstream in(
      "workloads = sor\n"
      "entries = 512\n"
      "nodes = 16, 32\n"
      "sd_policy = lru, random-phase\n");
  const std::vector<JobSpec> jobs = SweepSpec::parse(in, "cross.spec").expand();
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].configTag(), "sd-512");
  EXPECT_EQ(jobs[1].configTag(), "sd-512-n32");
  EXPECT_EQ(jobs[2].configTag(), "sd-512-random-phase");
  EXPECT_EQ(jobs[3].configTag(), "sd-512-random-phase-n32");
}

TEST(SweepSpec, LinkStallIsValidatedPerMachineSize) {
  // Port 10 exists on a 64-node machine (16 switches per stage), not on the
  // 16-node one (4 per stage): each cell is validated at its own size.
  const auto parseText = [](const std::string& text) {
    std::istringstream in(text);
    return SweepSpec::parse(in, "stall.spec");
  };
  EXPECT_NO_THROW(parseText("workloads = sor\nentries = 512\nnodes = 64\n"
                            "fault_link_stall = 0,10,100,50\n"));
  try {
    (void)parseText("workloads = sor\nentries = 512\nnodes = 16, 64\n"
                    "fault_link_stall = 0,10,100,50\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stall.spec: invalid configuration for SOR sd-512:"), std::string::npos)
        << what;
    EXPECT_NE(what.find("port index exceeds switches per stage"), std::string::npos) << what;
    EXPECT_EQ(what.find("-n64"), std::string::npos) << what;
  }
}

TEST(SweepSpec, DocumentOptionsRecordOnlyTheRecordedAxes) {
  const auto optionsOf = [](const std::string& text) {
    std::istringstream in(text);
    return SweepSpec::parse(in, "opts.spec").documentOptions();
  };
  using Opts = std::vector<std::pair<std::string, std::string>>;
  // entries/assoc/pending_buffer and the traffic axes are never recorded.
  EXPECT_EQ(optionsOf("workloads = oltp\nentries = 0, 512\nassoc = 2\ntenants = 2, 4\n"),
            (Opts{{"scale", "default"}, {"seeds", "1"}, {"trace_refs", "1000000"}}));
  // Recorded axes appear once off their default.
  EXPECT_EQ(optionsOf("workloads = sor\nnodes = 16, 32\nrouting = lca, adaptive\n"
                      "flit_level = 1\n"),
            (Opts{{"scale", "default"},
                  {"seeds", "1"},
                  {"trace_refs", "1000000"},
                  {"nodes", "16,32"},
                  {"routing", "lca,adaptive"},
                  {"flit_level", "1"}}));
  // The fault group is all-or-nothing: every rate plus the seed once the
  // spec can inject, the link stall only when active.
  EXPECT_EQ(optionsOf("workloads = sor\nfault_delay_rate = 0.02\n"),
            (Opts{{"scale", "default"},
                  {"seeds", "1"},
                  {"trace_refs", "1000000"},
                  {"fault_drop_rate", "0"},
                  {"fault_delay_rate", "0.02"},
                  {"fault_sd_loss_rate", "0"},
                  {"fault_seed", "1"}}));
  EXPECT_EQ(optionsOf("workloads = sor\nfault_drop_rate = 0\n").size(), 3u);
}

// ---------------------------------------------------------------- runJobs --

/// `n` short TPC-C trace jobs, told apart by their replica seed.
std::vector<JobSpec> traceJobs(std::size_t n) {
  std::vector<JobSpec> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].kind = JobKind::Trace;
    jobs[i].app = "tpcc";
    jobs[i].traceRefs = 2'000;
    jobs[i].seed = i + 1;
  }
  return jobs;
}

TEST(RunJobs, RunsEveryJobExactlyOnceIndexedLikeJobs) {
  const std::vector<JobSpec> jobs = traceJobs(24);
  for (const unsigned threads : {1u, 4u}) {
    std::vector<int> done(jobs.size(), 0);
    const std::vector<JobResult> results = runJobs(
        jobs, threads, [&](const JobResult& r) { ++done.at(r.job.seed - 1); });
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(results[i].ok) << results[i].error;
      EXPECT_EQ(results[i].job.seed, jobs[i].seed) << "threads=" << threads;
      EXPECT_EQ(done[i], 1) << "job " << i << ", threads=" << threads;
    }
  }
}

TEST(RunJobs, SingleThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  runJobs(traceJobs(3), 1,
          [&](const JobResult&) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

/// Jobs 2 and 9 of 12 name an unknown app: each failure stays in its own
/// result slot and every sibling still runs to completion.
void expectFailuresStayInTheirSlots(unsigned threads) {
  std::vector<JobSpec> jobs = traceJobs(12);
  for (const std::size_t bad : {2u, 9u}) {
    jobs[bad].kind = JobKind::Scientific;
    jobs[bad].app = "nosuch";
  }
  std::atomic<int> done{0};
  const std::vector<JobResult> results =
      runJobs(jobs, threads, [&](const JobResult&) { ++done; });
  EXPECT_EQ(done.load(), 12);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const bool bad = i == 2 || i == 9;
    EXPECT_EQ(results[i].ok, !bad) << "job " << i;
    EXPECT_EQ(results[i].job.seed, jobs[i].seed);
    if (bad) {
      EXPECT_NE(results[i].error.find("nosuch"), std::string::npos) << results[i].error;
    }
  }
}

// These two keep the names they had when a work-stealing pool ran the jobs;
// runJobs inherited the guarantee that one failure never cancels its siblings.
TEST(WorkStealingPool, AggregatesAllFailuresAndFinishesSiblings) {
  expectFailuresStayInTheirSlots(4);
}

TEST(WorkStealingPool, SingleThreadAlsoFinishesSiblingsAfterFailure) {
  expectFailuresStayInTheirSlots(1);
}

// --------------------------------------------- parallel determinism (E2E) --

SweepSpec tinySpec() {
  SweepSpec s;
  s.name = "test";
  s.workloads = {"fft", "tpcc"};
  s.entries = {0, 512};
  s.scale = "tiny";
  s.traceRefs = 20'000;
  return s;
}

std::string runSweepJson(unsigned threads) {
  SweepSpec s = tinySpec();
  s.overrideScale(s.scale);
  const std::vector<RunRecord> records = canonicalRecords(runJobs(s.expand(), threads));
  SweepJsonOptions jo;
  jo.specName = s.name;
  jo.jobs = threads;
  jo.deterministic = true;
  return sweepToJson(records, aggregate(records), jo);
}

TEST(HarnessDeterminism, SerialAndParallelSweepsAreByteIdentical) {
  const std::string serial = runSweepJson(1);
  const std::string parallel = runSweepJson(4);
  EXPECT_EQ(serial, parallel);
  // And the document is valid JSON with every run present.
  const JsonValue v = JsonValue::parse(serial);
  EXPECT_EQ(v.at("schema").asString(), kSweepSchema);
  EXPECT_EQ(v.at("runs").asArray().size(), 4u);
  EXPECT_EQ(v.at("configs").asArray().size(), 4u);
}

// ------------------------------------------------------ canonical order --

RunRecord rec(const char* app, const char* config, std::uint64_t seed, double execTime) {
  RunRecord r;
  r.app = app;
  r.config = config;
  r.kind = "scientific";
  r.seed = seed;
  r.metric("exec_time", execTime);
  return r;
}

TEST(RunRecords, SortCanonically) {
  std::vector<JobResult> results(4);
  results[0].record = rec("SOR", "sd-512", 0, 10);
  results[1].record = rec("FFT", "base", 2, 20);
  results[2].record = rec("FFT", "base", 1, 30);
  results[3].ok = false;  // a failed job contributes no record
  const std::vector<RunRecord> runs = canonicalRecords(results);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].app, "FFT");
  EXPECT_EQ(runs[0].seed, 1u);  // seeds ordered within a cell
  EXPECT_EQ(runs[1].seed, 2u);
  EXPECT_EQ(runs[2].app, "SOR");
}

// ------------------------------------------------ aggregate & comparison --

TEST(Aggregate, SummarizesReplicas) {
  std::vector<RunRecord> runs;
  runs.push_back(rec("FFT", "base", 1, 10));
  runs.push_back(rec("FFT", "base", 2, 14));
  runs.push_back(rec("FFT", "sd-512", 1, 6));
  const std::vector<ConfigAggregate> aggs = aggregate(runs);
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_EQ(aggs[0].replicas, 2u);
  ASSERT_FALSE(aggs[0].metrics.empty());
  EXPECT_EQ(aggs[0].metrics[0].first, "exec_time");
  EXPECT_DOUBLE_EQ(aggs[0].metrics[0].second.mean, 12.0);
  EXPECT_DOUBLE_EQ(aggs[0].metrics[0].second.stddev, 2.0);
  EXPECT_DOUBLE_EQ(aggs[0].metrics[0].second.min, 10.0);
  EXPECT_DOUBLE_EQ(aggs[0].metrics[0].second.max, 14.0);
  EXPECT_DOUBLE_EQ(aggs[1].metrics[0].second.mean, 6.0);
}

TEST(Aggregate, CompareMetricsComputesSignedPct) {
  const std::vector<std::pair<std::string, double>> base = {{"exec_time", 100.0}};
  const std::vector<std::pair<std::string, double>> cur = {{"exec_time", 110.0},
                                                           {"new_metric", 1.0}};
  const std::vector<MetricDelta> deltas = compareMetrics(base, cur);
  ASSERT_EQ(deltas.size(), 1u);  // only metrics present in both
  EXPECT_DOUBLE_EQ(deltas[0].pct, 10.0);
}

// --------------------------------------------------------- baseline gate --

std::vector<ConfigAggregate> oneCell(double execTime, double latency) {
  std::vector<RunRecord> runs;
  RunRecord r = rec("FFT", "base", 0, execTime);
  r.metric("avg_read_latency", latency);
  r.metric("reads", 1000);  // unwatched: must never gate
  runs.push_back(std::move(r));
  return aggregate(runs);
}

TEST(BaselineGate, PassesWhenUnchanged) {
  const auto base = oneCell(100, 50);
  const RegressionReport rep = compareAgainstBaseline(base, oneCell(100, 50), 0.1);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.regressions(), 0u);
}

TEST(BaselineGate, FlagsWatchedMetricBeyondThreshold) {
  const auto base = oneCell(100, 50);
  const RegressionReport rep = compareAgainstBaseline(base, oneCell(110, 50), 5.0);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.regressions(), 1u);
  bool found = false;
  for (const RegressionItem& i : rep.items) {
    if (i.metric == "exec_time" && i.regression) {
      EXPECT_DOUBLE_EQ(i.pct, 10.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(BaselineGate, ImprovementAndSmallDriftPass) {
  const auto base = oneCell(100, 50);
  EXPECT_TRUE(compareAgainstBaseline(base, oneCell(90, 50), 5.0).ok());   // faster
  EXPECT_TRUE(compareAgainstBaseline(base, oneCell(104, 50), 5.0).ok());  // within 5%
}

TEST(BaselineGate, ReportsMissingConfigs) {
  std::vector<RunRecord> runs;
  runs.push_back(rec("FFT", "base", 0, 100));
  runs.push_back(rec("SOR", "base", 0, 100));
  const auto base = aggregate(runs);
  const RegressionReport rep = compareAgainstBaseline(base, oneCell(100, 50), 5.0);
  ASSERT_EQ(rep.missingInCurrent.size(), 1u);
  EXPECT_NE(rep.missingInCurrent[0].find("SOR"), std::string::npos);
  // Reverse direction: current has a config the baseline lacks.
  const RegressionReport rep2 = compareAgainstBaseline(oneCell(100, 50), base, 5.0);
  EXPECT_EQ(rep2.missingInBaseline.size(), 1u);
}

TEST(BaselineGate, LoadsV3Documents) {
  // v3 round trip through the real writer.
  std::vector<RunRecord> runs;
  runs.push_back(rec("FFT", "base", 0, 100));
  SweepJsonOptions jo;
  jo.deterministic = true;
  const std::string v3 = sweepToJson(runs, aggregate(runs), jo);
  const auto fromV3 = loadBaseline(v3);
  ASSERT_EQ(fromV3.size(), 1u);
  EXPECT_EQ(fromV3[0].app, "FFT");

  EXPECT_THROW((void)loadBaseline("{\"schema\": \"x\"}"), std::runtime_error);
  EXPECT_THROW((void)loadBaseline("not json"), std::runtime_error);
}

}  // namespace
}  // namespace dresar::harness

// Tests for the JSONL campaign job store: the job-key scheme, the
// serialize/parse round trip (which must be bit-exact for doubles — resume
// byte-identity depends on it), append/load file I/O, and the torn-line
// tolerance that a mid-write kill relies on.
#include "harness/job_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace dresar::harness {
namespace {

std::filesystem::path tempStorePath(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

StoredJob sampleOk() {
  StoredJob s;
  s.key = "scientific|FFT|sd-512|2";
  s.ok = true;
  s.wallSeconds = 0.1 + 0.2;  // 0.30000000000000004 — needs all 17 digits
  s.record.app = "FFT";
  s.record.config = "sd-512";
  s.record.kind = "scientific";
  s.record.sdEntries = 512;
  s.record.seed = 2;
  s.record.wallSeconds = s.wallSeconds;
  s.record.events = 26880;
  s.record.metric("exec_time", 20325.0);
  s.record.metric("avg_read_latency", 100.0 / 3.0);  // non-terminating binary
  return s;
}

/// A record carrying every optional block the store persists: fault,
/// traffic, congestion and latency. Doubles are non-terminating binaries so
/// the %.17g store precision shows.
StoredJob sampleAllBlocks() {
  StoredJob s;
  s.key = "scientific|HOTSPOT|sd-512-fd0.02-adaptive-flit|2";
  s.ok = true;
  s.wallSeconds = 0.1 + 0.2;
  RunRecord& r = s.record;
  r.app = "HOTSPOT";
  r.config = "sd-512-fd0.02-adaptive-flit";
  r.kind = "scientific";
  r.sdEntries = 512;
  r.seed = 2;
  r.wallSeconds = 1.0 / 3.0;
  r.events = 123456;
  r.metric("exec_time", 98765.0);
  r.metric("avg_read_latency", 200.0 / 7.0);
  r.hasFault = true;
  r.faultInjectedDrops = 1;
  r.faultInjectedDelays = 2;
  r.faultInjectedDelayCycles = 3;
  r.faultInjectedSdLosses = 4;
  r.faultInjectedStallCycles = 5;
  r.faultInjectedEffective = 6;
  r.faultTimeoutReissues = 7;
  r.faultRecovered = 8;
  r.faultFallbackHomeLookups = 9;
  r.hasTraffic = true;
  r.trafficTenantCount = 2;
  r.trafficP99Read = 1.0 / 9.0;
  r.trafficP999Read = 2.0 / 9.0;
  r.trafficP99Overflowed = false;
  r.trafficP999Overflowed = true;
  r.trafficBurstOccupancy = 0.1 + 0.7;
  r.trafficSteadyOccupancy = 0.3 / 7.0;
  r.trafficBurstCycles = 20000;
  r.trafficSteadyCycles = 80000;
  r.trafficPerTenant = {{10, 3, 100.0 / 3.0, 250.0}, {11, 4, 50.0 / 7.0, 125.5}};
  r.hasCongestion = true;
  r.congOfferedRate = 1.0 / 11.0;
  r.congAcceptedRate = 1.0 / 13.0;
  r.congRuns = 1;
  r.congCreditStallCycles = 17;
  r.congLinkBusySkips = 19;
  r.congSourceCreditStalls = 23;
  r.congPerSwitchCreditStalls = {1, 0, 2};
  r.congStageOccupancy = {{0.5 / 3.0, 4.0, 30, {1, 2, 3}}, {2.0 / 3.0, 6.0, 31, {}}};
  r.congLockHoldMean = 5.0 / 3.0;
  r.congLockHoldMax = 9.0;
  r.congLockHoldCount = 12;
  r.congLockHoldHist = {4, 5, 3};
  r.hasTrace = true;
  r.traceReadTxns = 40;
  r.traceWriteTxns = 8;
  r.traceReadEndToEnd = 310.0 / 3.0;
  r.traceWriteEndToEnd = 410.0 / 7.0;
  for (std::size_t i = 0; i < r.traceReadStage.size(); ++i) {
    r.traceReadStage[i] = static_cast<double>(i) / 3.0;
    r.traceWriteStage[i] = static_cast<double>(i) / 7.0;
  }
  return s;
}

TEST(JobKind, NamesEveryKind) {
  EXPECT_STREQ(kindName(JobKind::Scientific), "scientific");
  EXPECT_STREQ(kindName(JobKind::Trace), "trace");
  EXPECT_STREQ(kindName(JobKind::Traffic), "traffic");
}

TEST(JobKey, EncodesKindAppConfigAndSeed) {
  JobSpec j;
  j.app = "fft";
  j.sdEntries = 512;
  j.seed = 3;
  EXPECT_EQ(jobKeyOf(j), "scientific|FFT|sd-512|3");
  j.kind = JobKind::Trace;
  j.app = "tpcc";
  j.sdEntries = 0;
  j.seed = 1;
  EXPECT_EQ(jobKeyOf(j), "trace|TPC-C|base|1");
  j.kind = JobKind::Traffic;
  j.app = "oltp";
  j.trafficTenants = 2;
  EXPECT_EQ(jobKeyOf(j), "traffic|OLTP|base-t2|1");
}

TEST(JobStore, LineFormatIsPinned) {
  // Captured from the store writer before the record blocks were shared
  // with the result documents: existing stores must keep resuming, so the
  // line bytes (block order, key names, %.17g doubles) may not move.
  EXPECT_EQ(JobStore::serializeLine(sampleAllBlocks()),
            R"json({"key":"scientific|HOTSPOT|sd-512-fd0.02-adaptive-flit|2","ok":true,"wall_seconds":0.30000000000000004)json"
            R"json(,"record":{"app":"HOTSPOT","config":"sd-512-fd0.02-adaptive-flit","kind":"scientific","sd_entries":512,"seed":2,"wall_seconds":0.33333333333333331,"events":123456)json"
            R"json(,"metrics":{"exec_time":98765,"avg_read_latency":28.571428571428573})json"
            R"json(,"fault":{"injected_drops":1,"injected_delays":2,"injected_delay_cycles":3,"injected_sd_losses":4,"injected_stall_cycles":5,"injected_effective":6,"timeout_reissues":7,"recovered":8,"fallback_home_lookups":9},"traffic":{"tenants":2,"p99_read_latency":0.1111111111111111,"p999_read_latency":0.22222222222222221,"p99_overflowed":false,"p999_overflowed":true,"burst_occupancy":0.79999999999999993,"steady_occupancy":0.042857142857142858,"burst_cycles":20000,"steady_cycles":80000)json"
            R"json(,"per_tenant":[{"reads":10,"writes":3,"mean_read_latency":33.333333333333336,"max_read_latency":250},{"reads":11,"writes":4,"mean_read_latency":7.1428571428571432,"max_read_latency":125.5}]})json"
            R"json(,"congestion":{"offered_rate":0.090909090909090912,"accepted_rate":0.076923076923076927,"runs":1,"credit_stall_cycles":17,"link_busy_skips":19,"source_credit_stalls":23,"per_switch_credit_stalls":[1,0,2])json"
            R"json(,"stage_occupancy":[{"mean":0.16666666666666666,"max":4,"samples":30,"hist":[1,2,3]},{"mean":0.66666666666666663,"max":6,"samples":31,"hist":[]}],"lock_hold":{"mean":1.6666666666666667,"max":9,"count":12,"hist":[4,5,3]}})json"
            R"json(,"latency":{"read_txns":40,"write_txns":8,"read_end_to_end":103.33333333333333,"write_end_to_end":58.571428571428569)json"
            R"json(,"read_stage":[0,0.33333333333333331,0.66666666666666663,1,1.3333333333333333,1.6666666666666667,2,2.3333333333333335,2.6666666666666665])json"
            R"json(,"write_stage":[0,0.14285714285714285,0.2857142857142857,0.42857142857142855,0.5714285714285714,0.7142857142857143,0.8571428571428571,1,1.1428571428571428]}}})json");
  const StoredJob back = JobStore::parseLine(JobStore::serializeLine(sampleAllBlocks()));
  EXPECT_EQ(JobStore::serializeLine(back), JobStore::serializeLine(sampleAllBlocks()));
}

TEST(JobStore, SerializeParseRoundTripIsBitExact) {
  const StoredJob s = sampleOk();
  const std::string line = JobStore::serializeLine(s);
  const StoredJob back = JobStore::parseLine(line);
  EXPECT_EQ(back.key, s.key);
  EXPECT_TRUE(back.ok);
  // Bit-exact doubles: re-serializing the parsed entry reproduces the line.
  EXPECT_EQ(JobStore::serializeLine(back), line);
  EXPECT_EQ(back.wallSeconds, s.wallSeconds);
  ASSERT_EQ(back.record.metrics.size(), s.record.metrics.size());
  EXPECT_EQ(back.record.metrics[1].second, 100.0 / 3.0);
}

TEST(JobStore, SerializeParseRoundTripErrorEntry) {
  StoredJob s;
  s.key = "trace|TPC-C|base|1";
  s.ok = false;
  s.error = "pending buffer \"wedged\" at cycle 42";
  const std::string line = JobStore::serializeLine(s);
  const StoredJob back = JobStore::parseLine(line);
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.key, s.key);
  EXPECT_EQ(back.error, s.error);
  EXPECT_EQ(JobStore::serializeLine(back), line);
}

TEST(JobStore, ParseLineRejectsGarbage) {
  EXPECT_THROW((void)JobStore::parseLine("not json"), std::runtime_error);
  EXPECT_THROW((void)JobStore::parseLine("{\"ok\":true}"), std::runtime_error);
}

TEST(JobStore, AppendThenLoadPreservesOrder) {
  const auto path = tempStorePath("dresar_job_store_test.jobs");
  std::filesystem::remove(path);
  {
    JobStore store;
    ASSERT_TRUE(store.open(path.string(), /*append=*/false));
    ASSERT_TRUE(store.isOpen());
    StoredJob a = sampleOk();
    StoredJob b = sampleOk();
    b.key = "scientific|FFT|sd-512|3";
    store.append(a);
    store.append(b);
  }
  const std::vector<StoredJob> loaded = JobStore::loadFile(path.string());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].key, "scientific|FFT|sd-512|2");
  EXPECT_EQ(loaded[1].key, "scientific|FFT|sd-512|3");
  std::filesystem::remove(path);
}

TEST(JobStore, LoadToleratesTornFinalLine) {
  const auto path = tempStorePath("dresar_job_store_torn.jobs");
  {
    std::ofstream out(path);
    out << JobStore::serializeLine(sampleOk()) << "\n";
    // A mid-write kill leaves a prefix of the next line, no newline.
    out << JobStore::serializeLine(sampleOk()).substr(0, 40);
  }
  const std::vector<StoredJob> loaded = JobStore::loadFile(path.string());
  ASSERT_EQ(loaded.size(), 1u);  // torn tail ignored
  EXPECT_EQ(loaded[0].key, "scientific|FFT|sd-512|2");
  std::filesystem::remove(path);
}

TEST(JobStore, LoadThrowsOnCorruptMiddleLine) {
  const auto path = tempStorePath("dresar_job_store_corrupt.jobs");
  {
    std::ofstream out(path);
    out << JobStore::serializeLine(sampleOk()) << "\n";
    out << "garbage in the middle\n";
    out << JobStore::serializeLine(sampleOk()) << "\n";
  }
  EXPECT_THROW((void)JobStore::loadFile(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(JobStore, LoadThrowsOnMissingFile) {
  EXPECT_THROW((void)JobStore::loadFile("/nonexistent/dresar.jobs"), std::runtime_error);
}

}  // namespace
}  // namespace dresar::harness

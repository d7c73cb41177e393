// Tests for the JSONL campaign job store: the job-key scheme, the
// serialize/parse round trip (which must be bit-exact for doubles — resume
// byte-identity depends on it), append/load file I/O, and the torn-line
// tolerance that a mid-write kill relies on.
#include "harness/job_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "common/txn_trace.h"
#include "harness/aggregate.h"
#include "sim/json_writer.h"

namespace dresar::harness {
namespace {

std::filesystem::path tempStorePath(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

StoredJob sampleOk() {
  StoredJob s;
  s.key = "scientific|FFT|sd-512|2";
  s.ok = true;
  s.stamp = {kSweepSchema, "tiny", 200'000};
  s.record.app = "FFT";
  s.record.config = "sd-512";
  s.record.kind = "scientific";
  s.record.sdEntries = 512;
  s.record.seed = 2;
  s.record.wallSeconds = 0.1 + 0.2;  // 0.30000000000000004 — needs all 17 digits
  s.record.events = 26880;
  s.record.metric("exec_time", 20325.0);
  s.record.metric("avg_read_latency", 100.0 / 3.0);  // non-terminating binary
  return s;
}

/// A record carrying every optional block the store persists: fault,
/// traffic, congestion and latency_stages. Doubles are non-terminating
/// binaries so the %.17g store precision shows.
StoredJob sampleAllBlocks() {
  StoredJob s;
  s.key = "scientific|HOTSPOT|sd-512-fd0.02-adaptive-flit|2";
  s.ok = true;
  s.stamp = {kSweepSchema, "tiny", 200'000};
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
  const auto u = [](JsonWriter& w, const char* k, std::uint64_t v) { w.field(k, v); };
  const auto hist = [](JsonWriter& w, std::initializer_list<std::uint64_t> buckets) {
    w.key("hist");
    w.beginArray();
    for (const std::uint64_t b : buckets) w.value(b);
    w.endArray();
  };
  r.addBlock("fault", [&](JsonWriter& w) {
    w.beginObject();
    const char* names[] = {"injected_drops",        "injected_delays",    "injected_delay_cycles",
                           "injected_sd_losses",    "injected_stall_cycles",
                           "injected_effective",    "timeout_reissues",   "recovered",
                           "fallback_home_lookups"};
    for (std::uint64_t i = 0; i < std::size(names); ++i) u(w, names[i], i + 1);
    w.endObject();
  });
  r.addBlock("traffic", [&](JsonWriter& w) {
    w.beginObject();
    u(w, "tenants", 2);
    w.field("p99_read_latency", 1.0 / 9.0);
    w.field("p999_read_latency", 2.0 / 9.0);
    w.field("p99_overflowed", false);
    w.field("p999_overflowed", true);
    w.field("burst_occupancy", 0.1 + 0.7);
    w.field("steady_occupancy", 0.3 / 7.0);
    u(w, "burst_cycles", 20000);
    u(w, "steady_cycles", 80000);
    w.key("per_tenant");
    w.beginArray();
    w.beginObject();
    u(w, "reads", 10);
    u(w, "writes", 3);
    w.field("mean_read_latency", 100.0 / 3.0);
    w.field("max_read_latency", 250.0);
    w.endObject();
    w.beginObject();
    u(w, "reads", 11);
    u(w, "writes", 4);
    w.field("mean_read_latency", 50.0 / 7.0);
    w.field("max_read_latency", 125.5);
    w.endObject();
    w.endArray();
    w.endObject();
  });
  r.addBlock("congestion", [&](JsonWriter& w) {
    w.beginObject();
    w.field("offered_rate", 1.0 / 11.0);
    w.field("accepted_rate", 1.0 / 13.0);
    u(w, "runs", 1);
    u(w, "credit_stall_cycles", 17);
    u(w, "link_busy_skips", 19);
    u(w, "source_credit_stalls", 23);
    w.key("per_switch_credit_stalls");
    w.beginArray();
    for (const std::uint64_t v : {1, 0, 2}) w.value(v);
    w.endArray();
    w.key("stage_occupancy");
    w.beginArray();
    w.beginObject();
    w.field("mean", 0.5 / 3.0);
    w.field("max", 4.0);
    u(w, "samples", 30);
    hist(w, {1, 2, 3});
    w.endObject();
    w.beginObject();
    w.field("mean", 2.0 / 3.0);
    w.field("max", 6.0);
    u(w, "samples", 31);
    hist(w, {});
    w.endObject();
    w.endArray();
    w.key("lock_hold");
    w.beginObject();
    w.field("mean", 5.0 / 3.0);
    w.field("max", 9.0);
    u(w, "count", 12);
    hist(w, {4, 5, 3});
    w.endObject();
    w.endObject();
  });
  r.addBlock("latency_stages", [&](JsonWriter& w) {
    const auto txnClass = [&](const char* name, std::uint64_t txns, double endToEnd,
                              double divisor) {
      w.key(name);
      w.beginObject();
      u(w, "txns", txns);
      w.field("end_to_end_cycles", endToEnd);
      w.key("stages");
      w.beginObject();
      for (std::size_t i = 0; i < kTxnStageCount; ++i) {
        w.field(toString(static_cast<TxnStage>(i)), static_cast<double>(i) / divisor);
      }
      w.endObject();
      w.endObject();
    };
    w.beginObject();
    txnClass("read", 40, 310.0 / 3.0, 3.0);
    txnClass("write", 8, 410.0 / 7.0, 7.0);
    w.endObject();
  });
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
  // Existing stores must keep resuming, so the line bytes (block order, key
  // names, %.17g doubles) may not move. The record is written as the result
  // document writes it, blocks included, plus the store's schema and scale
  // stamp.
  EXPECT_EQ(JobStore::serializeLine(sampleAllBlocks()),
            R"json({"key":"scientific|HOTSPOT|sd-512-fd0.02-adaptive-flit|2","ok":true,"schema":"dresar-bench-results/v7","scale":"tiny","trace_refs":200000)json"
            R"json(,"record":{"app":"HOTSPOT","config":"sd-512-fd0.02-adaptive-flit","kind":"scientific","sd_entries":512,"seed":2,"wall_seconds":0.33333333333333331,"events":123456)json"
            R"json(,"metrics":{"exec_time":98765,"avg_read_latency":28.571428571428573})json"
            R"json(,"fault":{"injected_drops":1,"injected_delays":2,"injected_delay_cycles":3,"injected_sd_losses":4,"injected_stall_cycles":5,"injected_effective":6,"timeout_reissues":7,"recovered":8,"fallback_home_lookups":9},"traffic":{"tenants":2,"p99_read_latency":0.1111111111111111,"p999_read_latency":0.22222222222222221,"p99_overflowed":false,"p999_overflowed":true,"burst_occupancy":0.79999999999999993,"steady_occupancy":0.042857142857142858,"burst_cycles":20000,"steady_cycles":80000)json"
            R"json(,"per_tenant":[{"reads":10,"writes":3,"mean_read_latency":33.333333333333336,"max_read_latency":250},{"reads":11,"writes":4,"mean_read_latency":7.1428571428571432,"max_read_latency":125.5}]})json"
            R"json(,"congestion":{"offered_rate":0.090909090909090912,"accepted_rate":0.076923076923076927,"runs":1,"credit_stall_cycles":17,"link_busy_skips":19,"source_credit_stalls":23,"per_switch_credit_stalls":[1,0,2])json"
            R"json(,"stage_occupancy":[{"mean":0.16666666666666666,"max":4,"samples":30,"hist":[1,2,3]},{"mean":0.66666666666666663,"max":6,"samples":31,"hist":[]}],"lock_hold":{"mean":1.6666666666666667,"max":9,"count":12,"hist":[4,5,3]}})json"
            R"json(,"latency_stages":{"read":{"txns":40,"end_to_end_cycles":103.33333333333333,"stages":{"cache_access":0,"request_net":0.33333333333333331,"home_dir":0.66666666666666663,"home_service":1,"forward":1.3333333333333333,"owner_access":1.6666666666666667,"data_return":2,"retry":2.3333333333333335,"backoff":2.6666666666666665}})json"
            R"json(,"write":{"txns":8,"end_to_end_cycles":58.571428571428569,"stages":{"cache_access":0,"request_net":0.14285714285714285,"home_dir":0.2857142857142857,"home_service":0.42857142857142855,"forward":0.5714285714285714,"owner_access":0.7142857142857143,"data_return":0.8571428571428571,"retry":1,"backoff":1.1428571428571428}}}}})json");
  const StoredJob back = JobStore::parseLine(JobStore::serializeLine(sampleAllBlocks()));
  EXPECT_EQ(back.stamp, sampleAllBlocks().stamp);
  EXPECT_EQ(JobStore::serializeLine(back), JobStore::serializeLine(sampleAllBlocks()));
}

TEST(JobStore, ParseLineRejectsUnknownBlock) {
  // The pre-block-sharing store wrote latency attribution as "latency"; a
  // name outside the four known blocks fails the line, named.
  const std::string line = JobStore::serializeLine(sampleOk());
  const std::string tail = "}}";
  ASSERT_EQ(line.substr(line.size() - tail.size()), tail);
  const std::string withLatency =
      line.substr(0, line.size() - tail.size()) + R"(,"latency":{"read_txns":1}}})";
  try {
    (void)JobStore::parseLine(withLatency);
    FAIL() << "an unknown block must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'latency'"), std::string::npos) << e.what();
  }
}

TEST(JobStore, SerializeParseRoundTripIsBitExact) {
  const StoredJob s = sampleOk();
  const std::string line = JobStore::serializeLine(s);
  const StoredJob back = JobStore::parseLine(line);
  EXPECT_EQ(back.key, s.key);
  EXPECT_TRUE(back.ok);
  // Bit-exact doubles: re-serializing the parsed entry reproduces the line.
  EXPECT_EQ(JobStore::serializeLine(back), line);
  EXPECT_EQ(back.stamp, s.stamp);
  EXPECT_EQ(back.record.wallSeconds, s.record.wallSeconds);
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
    ASSERT_TRUE(store.open(path.string()));
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

TEST(JobStore, LoadThrowsOnRejectedFinalLine) {
  // A final line that is whole JSON was not torn by a kill: when parseLine
  // rejects it (here an unknown block), the load fails and names the line.
  const auto path = tempStorePath("dresar_job_store_rejected.jobs");
  const std::string line = JobStore::serializeLine(sampleOk());
  {
    std::ofstream out(path);
    out << line << "\n";
    out << line.substr(0, line.size() - 2) << R"(,"latency":{"read_txns":1}}})" << "\n";
  }
  try {
    (void)JobStore::loadFile(path.string());
    FAIL() << "a rejected final line must fail the load";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("'latency'"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(JobStore, LoadThrowsOnMissingFile) {
  EXPECT_THROW((void)JobStore::loadFile("/nonexistent/dresar.jobs"), std::runtime_error);
}

}  // namespace
}  // namespace dresar::harness

// Multi-tenant traffic subsystem: model statistics (per-tenant Zipf shape,
// burstiness, hot-key drift), stream determinism, the trace-driven harness
// path (spec expansion, v5 serialization, j1-vs-j4 byte identity, job-store
// round trip) and the event-driven oltp/kv workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/aggregate.h"
#include "harness/job_store.h"
#include "harness/run_context.h"
#include "harness/sweep_spec.h"
#include "sim/json_reader.h"
#include "sim/json_writer.h"
#include "sim/simulation.h"
#include "trace/trace_sim.h"
#include "traffic/traffic_model.h"
#include "traffic/traffic_stats.h"

namespace dresar {
namespace {

/// A pure plain-access config: no sharing, no locality re-references, no
/// drift, reads only — so every emitted reference is one (tenant, key) draw
/// and distribution tests see the Zipf samplers directly.
TrafficConfig plainConfig(std::uint64_t refs) {
  TrafficConfig c;
  c.refs = refs;
  c.sharedFrac = 0.0;
  c.localityFrac = 0.0;
  c.writeFrac = 0.0;
  c.migrationPeriodRefs = 0;
  return c;
}

// ------------------------------------------------------------ determinism --

TEST(TrafficModel, SameConfigSameStream) {
  const TrafficConfig c = TrafficConfig::oltp(5'000);
  TrafficModel a(c);
  TrafficModel b(c);
  TrafficRef ra, rb;
  while (a.nextRef(ra)) {
    ASSERT_TRUE(b.nextRef(rb));
    EXPECT_EQ(ra.rec.pid, rb.rec.pid);
    EXPECT_EQ(ra.rec.addr, rb.rec.addr);
    EXPECT_EQ(ra.rec.write, rb.rec.write);
    EXPECT_EQ(ra.tenant, rb.tenant);
    EXPECT_EQ(ra.arrivalCycle, rb.arrivalCycle);
    EXPECT_EQ(ra.burst, rb.burst);
  }
  EXPECT_FALSE(b.nextRef(rb));
  EXPECT_EQ(a.emitted(), 5'000u);
}

TEST(TrafficModel, SharedSamplersGiveTheSameStreamAsOwnTables) {
  // The per-node models of one workload share one TrafficSamplers; each
  // must emit exactly the stream it would draw from tables of its own.
  const TrafficConfig base = TrafficConfig::oltp(3'000);
  const TrafficSamplers shared(base);
  for (const std::uint32_t id : {1u, 2u}) {
    TrafficConfig c = base;
    c.streamId = id;
    TrafficModel own(c);
    TrafficModel borrowed(c, TrafficLayout::fixedFor(c), shared);
    TrafficRef ro, rb;
    while (own.nextRef(ro)) {
      ASSERT_TRUE(borrowed.nextRef(rb));
      EXPECT_EQ(ro.rec.addr, rb.rec.addr);
      EXPECT_EQ(ro.rec.pid, rb.rec.pid);
      EXPECT_EQ(ro.tenant, rb.tenant);
      EXPECT_EQ(ro.arrivalCycle, rb.arrivalCycle);
    }
    EXPECT_FALSE(borrowed.nextRef(rb));
  }
  // Samplers built for another key skew or key-space size are refused.
  TrafficConfig skewed = base;
  skewed.skew = 0.5;
  EXPECT_THROW(TrafficModel(skewed, TrafficLayout::fixedFor(skewed), shared),
               std::invalid_argument);
  TrafficConfig bigger = base;
  bigger.keysPerTenant += 1;
  EXPECT_THROW(TrafficModel(bigger, TrafficLayout::fixedFor(bigger), shared),
               std::invalid_argument);
}

TEST(TrafficModel, RefStreamViewMatchesFullFidelityView) {
  const TrafficConfig c = TrafficConfig::kv(2'000);
  TrafficModel full(c);
  TrafficModel plain(c);
  TrafficRef rf;
  TraceRecord rp;
  while (full.nextRef(rf)) {
    ASSERT_TRUE(plain.next(rp));
    EXPECT_EQ(rf.rec.addr, rp.addr);
    EXPECT_EQ(rf.rec.pid, rp.pid);
    EXPECT_EQ(rf.rec.write, rp.write);
  }
  EXPECT_FALSE(plain.next(rp));
}

TEST(TrafficModel, StreamsAreIndependentPerStreamId) {
  TrafficConfig c = TrafficConfig::oltp(1'000);
  TrafficModel s0(c);
  c.streamId = 1;
  TrafficModel s1(c);
  TrafficRef a, b;
  std::uint64_t same = 0;
  while (s0.nextRef(a) && s1.nextRef(b)) same += a.rec.addr == b.rec.addr;
  EXPECT_LT(same, 50u);  // distinct streams, not a shifted copy
}

TEST(TrafficModel, PinnedPidEmitsOnlyThatNode) {
  TrafficConfig c = TrafficConfig::oltp(3'000);
  c.pinnedPid = 5;
  TrafficModel m(c);
  TrafficRef r;
  while (m.nextRef(r)) EXPECT_EQ(r.rec.pid, 5u);
}

TEST(TrafficModel, MultiplexedStreamCoversAllNodes) {
  TrafficConfig c = plainConfig(10'000);
  TrafficModel m(c);
  std::vector<std::uint64_t> perNode(c.numProcs, 0);
  TrafficRef r;
  while (m.nextRef(r)) ++perNode[r.rec.pid];
  for (std::uint32_t p = 0; p < c.numProcs; ++p) EXPECT_GT(perNode[p], 0u) << p;
}

// --------------------------------------------------- distribution shape ----

TEST(TrafficModel, PerTenantKeysFollowZipf) {
  // Chi-squared goodness of fit on the hottest tenant's key counts against
  // the configured Zipf pmf (rank ladder rotated by tenant * 7919, the
  // per-tenant offset the model applies).
  TrafficConfig c = plainConfig(400'000);
  c.tenants = 2;
  c.keysPerTenant = 50;
  c.skew = 0.9;
  TrafficModel m(c);

  std::map<std::uint32_t, std::vector<std::uint64_t>> keyCounts;  // tenant -> per-key
  TrafficRef r;
  while (m.nextRef(r)) {
    auto& counts = keyCounts[r.tenant];
    counts.resize(c.keysPerTenant, 0);
    const auto key = static_cast<std::uint32_t>((r.rec.addr - m.tenantAddr(r.tenant, 0)) /
                                                c.lineBytes);
    ASSERT_LT(key, c.keysPerTenant);
    ++counts[key];
  }

  const ZipfSampler ref(c.keysPerTenant, c.skew);
  for (const auto& [tenant, counts] : keyCounts) {
    std::uint64_t total = 0;
    for (const std::uint64_t n : counts) total += n;
    ASSERT_GT(total, 50'000u) << "tenant " << tenant;
    double chi2 = 0.0;
    for (std::uint32_t key = 0; key < c.keysPerTenant; ++key) {
      // key = (rank + tenant*7919) mod keys  =>  rank = key - offset mod keys.
      const std::uint32_t offset = tenant * 7919u % c.keysPerTenant;
      const std::uint32_t rank = (key + c.keysPerTenant - offset) % c.keysPerTenant;
      const double expect = ref.pmf(rank) * static_cast<double>(total);
      ASSERT_GT(expect, 5.0);  // chi-squared validity
      const double diff = static_cast<double>(counts[key]) - expect;
      chi2 += diff * diff / expect;
    }
    // df = 49; the p=0.001 critical value is ~85. A broken ladder or a wrong
    // exponent lands in the thousands.
    EXPECT_LT(chi2, 90.0) << "tenant " << tenant;
  }
}

TEST(TrafficModel, TenantLoadFollowsTenantSkew) {
  TrafficConfig c = plainConfig(200'000);
  c.tenants = 8;
  c.tenantSkew = 0.8;
  TrafficModel m(c);
  std::vector<std::uint64_t> perTenant(c.tenants, 0);
  TrafficRef r;
  while (m.nextRef(r)) ++perTenant[r.tenant];

  const ZipfSampler ref(c.tenants, c.tenantSkew);
  double chi2 = 0.0;
  for (std::uint32_t t = 0; t < c.tenants; ++t) {
    const double expect = ref.pmf(t) * static_cast<double>(c.refs);
    const double diff = static_cast<double>(perTenant[t]) - expect;
    chi2 += diff * diff / expect;
  }
  EXPECT_LT(chi2, 30.0);  // df = 7, p=0.001 critical ~24.3 with headroom
  // And the ordering is the Zipf ladder: tenant 0 is the hottest.
  EXPECT_EQ(std::max_element(perTenant.begin(), perTenant.end()) - perTenant.begin(), 0);
}

TEST(TrafficModel, BurstWindowsRaiseArrivalRateAndInterarrivalCV) {
  TrafficConfig flat = plainConfig(200'000);
  TrafficConfig bursty = flat;
  bursty.burstMultiplier = 8.0;

  const auto gapStats = [](const TrafficConfig& c) {
    TrafficModel m(c);
    TrafficRef r;
    std::uint64_t last = 0;
    double burstGapSum = 0.0, steadyGapSum = 0.0;
    std::uint64_t burstGaps = 0, steadyGaps = 0;
    double sum = 0.0, sq = 0.0;
    std::uint64_t n = 0;
    while (m.nextRef(r)) {
      if (r.arrivalCycle == last) continue;  // paired refs share an arrival
      const auto gap = static_cast<double>(r.arrivalCycle - last);
      last = r.arrivalCycle;
      (r.burst ? burstGapSum : steadyGapSum) += gap;
      ++(r.burst ? burstGaps : steadyGaps);
      sum += gap;
      sq += gap * gap;
      ++n;
    }
    const double mean = sum / static_cast<double>(n);
    const double var = sq / static_cast<double>(n) - mean * mean;
    struct Out {
      double burstMean, steadyMean, cv;
    };
    return Out{burstGapSum / static_cast<double>(burstGaps),
               steadyGapSum / static_cast<double>(steadyGaps), std::sqrt(var) / mean};
  };

  const auto f = gapStats(flat);
  const auto b = gapStats(bursty);
  // Flat: both phases draw from the same exponential.
  EXPECT_NEAR(f.burstMean / f.steadyMean, 1.0, 0.1);
  // Bursty: arrivals inside burst windows are ~8x denser.
  EXPECT_LT(b.burstMean, f.burstMean / 4.0);
  EXPECT_NEAR(b.steadyMean, f.steadyMean, f.steadyMean * 0.1);
  // The on/off rate mixture is visibly burstier than a plain Poisson stream.
  EXPECT_GT(b.cv, f.cv + 0.15);
}

TEST(TrafficModel, PhaseElapsedCyclesPartitionTheClock) {
  TrafficConfig c = TrafficConfig::oltp(50'000);
  c.burstMultiplier = 6.0;
  TrafficModel m(c);
  TrafficRef r;
  std::uint64_t lastArrival = 0;
  while (m.nextRef(r)) lastArrival = r.arrivalCycle;
  EXPECT_GT(m.burstCyclesElapsed(), 0u);
  EXPECT_GT(m.steadyCyclesElapsed(), 0u);
  // Every arrival-clock cycle lands in exactly one phase bucket.
  EXPECT_EQ(m.burstCyclesElapsed() + m.steadyCyclesElapsed(), lastArrival);
}

TEST(TrafficModel, HotKeysMigrateAcrossEpochs) {
  TrafficConfig c = plainConfig(200'000);
  c.tenants = 2;
  c.keysPerTenant = 1'000;
  c.skew = 1.1;
  c.migrationPeriodRefs = 100'000;  // exactly two epochs in the run
  TrafficModel m(c);

  std::map<Addr, std::uint64_t> epoch0, epoch1;
  TrafficRef r;
  while (m.nextRef(r)) {
    (m.emitted() <= 100'000 ? epoch0 : epoch1)[r.rec.addr]++;
  }
  const auto hottest = [](const std::map<Addr, std::uint64_t>& counts) {
    Addr best = 0;
    std::uint64_t n = 0;
    for (const auto& [a, cnt] : counts) {
      if (cnt > n) best = a, n = cnt;
    }
    return best;
  };
  // The rank ladder rotated between epochs: yesterday's hottest block is not
  // today's.
  EXPECT_NE(hottest(epoch0), hottest(epoch1));
}

TEST(TrafficModel, SharedSegmentHandsOwnershipBetweenNodes) {
  TrafficConfig c = TrafficConfig::oltp(50'000);
  TrafficModel m(c);
  const Addr sharedBase = m.sharedAddr(0);
  const Addr sharedEnd = m.sharedAddr(c.sharedBlocks);
  std::map<Addr, NodeId> lastWriter;
  std::uint64_t handoffs = 0;
  TrafficRef r;
  while (m.nextRef(r)) {
    if (r.rec.addr < sharedBase || r.rec.addr >= sharedEnd || !r.rec.write) continue;
    const auto it = lastWriter.find(r.rec.addr);
    if (it != lastWriter.end() && it->second != r.rec.pid) ++handoffs;
    lastWriter[r.rec.addr] = r.rec.pid;
  }
  // Migratory pairs keep dirty ownership moving — that is the c2c traffic
  // switch directories exist for.
  EXPECT_GT(handoffs, 100u);
}

TEST(TrafficModel, HotspotProfileConcentratesOnTheHotPage) {
  TrafficConfig c = TrafficConfig::hotspot(20'000);
  TrafficModel m(c);
  const Addr pageMask = ~static_cast<Addr>(c.pageBytes - 1);
  const Addr hotPage = m.hotAddr(0) & pageMask;
  std::uint64_t total = 0, hotRefs = 0, hotWrites = 0;
  TraceRecord r;
  while (m.next(r)) {
    ++total;
    if ((r.addr & pageMask) != hotPage) continue;
    ++hotRefs;
    if (r.write) ++hotWrites;
  }
  EXPECT_EQ(total, 20'000u);
  // hotFrac = 0.5 of *steps* land on the hot page; other step kinds emit
  // one-to-two refs too, so the ref share is near but not exactly half.
  const double frac = static_cast<double>(hotRefs) / static_cast<double>(total);
  EXPECT_GT(frac, 0.35);
  EXPECT_LT(frac, 0.75);
  // Every hot step is a migratory read+update pair on one block (the refs
  // budget may truncate the final pair after its read).
  EXPECT_LE(hotRefs - hotWrites * 2, 1u);
}

TEST(TrafficModel, IncastBatchesFireSynchronizedRotatingFanIn) {
  TrafficConfig c = TrafficConfig::incast(4'000);
  TrafficModel m(c);
  const Addr pageMask = ~static_cast<Addr>(c.pageBytes - 1);
  std::vector<Addr> victimPages;
  victimPages.reserve(c.numProcs);
  for (std::uint32_t v = 0; v < c.numProcs; ++v) {
    victimPages.push_back(m.victimAddr(v, 0) & pageMask);
  }
  // Batch k fires at arrival deadline (k+1) * period, entirely at victim
  // k % numProcs, as reads.
  std::map<std::uint64_t, std::vector<TrafficRef>> byArrival;
  TrafficRef ref;
  while (m.nextRef(ref)) {
    const Addr page = ref.rec.addr & pageMask;
    if (std::find(victimPages.begin(), victimPages.end(), page) == victimPages.end()) continue;
    byArrival[ref.arrivalCycle].push_back(ref);
  }
  ASSERT_GE(byArrival.size(), 3u);
  std::uint64_t k = 0;
  for (const auto& [arrival, batch] : byArrival) {
    EXPECT_EQ(arrival, (k + 1) * c.incastPeriodCycles);
    EXPECT_EQ(batch.size(), c.incastBatchRefs);
    const Addr wantPage = victimPages[k % c.numProcs];
    for (const TrafficRef& b : batch) {
      EXPECT_EQ(b.rec.addr & pageMask, wantPage);
      EXPECT_FALSE(b.rec.write);
    }
    ++k;
  }
}

TEST(TrafficModel, OfferedLoadScalesTheArrivalClock) {
  TrafficConfig base = TrafficConfig::hotspot(10'000);
  TrafficModel nominal(base);
  TrafficConfig scaled = base;
  scaled.offeredLoad = 4.0;
  TrafficModel hot(scaled);
  TraceRecord r;
  while (nominal.next(r)) {
  }
  while (hot.next(r)) {
  }
  const auto elapsed = [](const TrafficModel& m) {
    return m.burstCyclesElapsed() + m.steadyCyclesElapsed();
  };
  ASSERT_GT(elapsed(hot), 0u);
  // 4x the arrival rate compresses the same reference count into about a
  // quarter of the clock (integer gap rounding keeps it from being exact).
  const double ratio =
      static_cast<double>(elapsed(nominal)) / static_cast<double>(elapsed(hot));
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

// ------------------------------------------------------------- validation --

TEST(TrafficConfig, ValidationCollectsAllErrors) {
  TrafficConfig c;
  c.refs = 0;
  c.tenants = 0;
  c.writeFrac = 1.5;
  c.burstMultiplier = 0.0;
  const std::vector<std::string> errs = c.validationErrors();
  EXPECT_GE(errs.size(), 4u);
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(TrafficConfig, ProfileRegistry) {
  EXPECT_TRUE(isTrafficWorkload("oltp"));
  EXPECT_TRUE(isTrafficWorkload("kv"));
  EXPECT_FALSE(isTrafficWorkload("tpcc"));
  EXPECT_EQ(TrafficConfig::byName("kv", 10).tenants, 8u);
  EXPECT_THROW(TrafficConfig::byName("redis", 10), std::invalid_argument);
  TrafficConfig c = TrafficConfig::oltp(10);
  c.applyMix("writeheavy");
  EXPECT_DOUBLE_EQ(c.writeFrac, 0.4);
  EXPECT_THROW(c.applyMix("mixed"), std::invalid_argument);
}

TEST(TrafficConfig, PinnedPidMustBeInRange) {
  TrafficConfig c = TrafficConfig::oltp(10);
  c.pinnedPid = 16;  // == numProcs
  EXPECT_FALSE(c.validationErrors().empty());
}

// ------------------------------------------------------- harness plumbing --

harness::SweepSpec trafficSpec() {
  std::istringstream in(
      "name = tt\n"
      "workloads = oltp, kv\n"
      "entries = 0, 512\n"
      "trace_refs = 8000\n"
      "tenants = 2\n"
      "burst = 6\n"
      "mix = readmostly, writeheavy\n");
  return harness::SweepSpec::parse(in, "traffic.spec");
}

TEST(TrafficSweep, ExpandsWithTagsAndKind) {
  const harness::SweepSpec s = trafficSpec();
  EXPECT_TRUE(s.setsTrafficAxes());
  const std::vector<harness::JobSpec> jobs = s.expand();
  ASSERT_EQ(jobs.size(), 8u);  // 2 workloads x 2 entries x 2 mixes
  for (const auto& j : jobs) {
    EXPECT_EQ(j.kind, harness::JobKind::Traffic);
    EXPECT_EQ(j.trafficTenants, 2u);
    EXPECT_DOUBLE_EQ(j.trafficBurst, 6.0);
  }
  EXPECT_EQ(jobs[0].configTag(), "base-t2-b6");
  EXPECT_EQ(jobs[1].configTag(), "base-t2-b6-wh");
  EXPECT_EQ(jobs[2].configTag(), "sd-512-t2-b6");
  EXPECT_EQ(jobs[0].displayApp(), "OLTP");
  EXPECT_EQ(jobs[4].displayApp(), "KV");
}

TEST(TrafficSweep, TrafficAxesRejectNonTrafficWorkloads) {
  std::istringstream in(
      "name = bad\n"
      "workloads = fft, oltp\n"
      "tenants = 2\n");
  EXPECT_THROW((void)harness::SweepSpec::parse(in, "bad.spec"), std::runtime_error);
}

TEST(TrafficSweep, InvalidAxisCellRejectedAtParseTime) {
  std::istringstream in(
      "name = bad\n"
      "workloads = oltp\n"
      "mix = sideways\n");
  EXPECT_THROW((void)harness::SweepSpec::parse(in, "bad.spec"), std::runtime_error);
}

std::string runTrafficSweepJson(unsigned threads) {
  harness::SweepSpec s = trafficSpec();
  const std::vector<RunRecord> records =
      harness::canonicalRecords(harness::runJobs(s.expand(), threads));
  harness::SweepJsonOptions jo;
  jo.specName = s.name;
  jo.jobs = threads;
  jo.deterministic = true;
  return harness::sweepToJson(records, harness::aggregate(records), jo);
}

TEST(TrafficSweep, SerialAndParallelRunsAreByteIdentical) {
  const std::string serial = runTrafficSweepJson(1);
  const std::string parallel = runTrafficSweepJson(4);
  EXPECT_EQ(serial, parallel);

  const JsonValue v = JsonValue::parse(serial);
  EXPECT_EQ(v.at("schema").asString(), harness::kSweepSchema);
  const auto& runs = v.at("runs").asArray();
  ASSERT_EQ(runs.size(), 8u);
  for (const JsonValue& run : runs) {
    const JsonValue& t = run.at("traffic");
    EXPECT_EQ(t.at("tenants").asNumber(), 2.0);
    EXPECT_FALSE(t.at("p99_overflowed").asBool());
    EXPECT_FALSE(t.at("p999_overflowed").asBool());
    EXPECT_GT(t.at("p99_read_latency").asNumber(), 0.0);
    EXPECT_GE(t.at("p999_read_latency").asNumber(), t.at("p99_read_latency").asNumber());
    // burst=6 must overdrive the controllers relative to the steady phase.
    EXPECT_GT(t.at("burst_occupancy").asNumber(), t.at("steady_occupancy").asNumber());
    ASSERT_EQ(t.at("per_tenant").asArray().size(), 2u);
    std::uint64_t reads = 0;
    for (const JsonValue& row : t.at("per_tenant").asArray()) {
      reads += static_cast<std::uint64_t>(row.at("reads").asNumber());
      EXPECT_GT(row.at("mean_read_latency").asNumber(), 0.0);
    }
    EXPECT_GT(reads, 0u);
  }
}

TEST(TrafficSweep, SeedReplicasPerturbTheStream) {
  harness::SweepSpec s = trafficSpec();
  s.seeds = 2;
  const std::vector<harness::JobResult> results = harness::runJobs(s.expand(), 2);
  ASSERT_EQ(results.size(), 16u);
  // Replicas of one cell land adjacent in expansion order (seed innermost).
  const auto& r1 = results[0];
  const auto& r2 = results[1];
  ASSERT_EQ(r1.job.configKey(), r2.job.configKey());
  EXPECT_NE(r1.job.seed, r2.job.seed);
  EXPECT_NE(r1.record.metrics, r2.record.metrics);  // different stream
}

TEST(TrafficJobStore, RoundTripsTrafficBlock) {
  harness::SweepSpec s = trafficSpec();
  const std::vector<harness::JobSpec> jobs = s.expand();
  const harness::JobResult res = harness::runJobs({jobs[0]}, 1)[0];
  ASSERT_TRUE(res.ok);
  const JsonValue* traffic = res.record.block("traffic");
  ASSERT_NE(traffic, nullptr);
  EXPECT_EQ(traffic->at("tenants").asNumber(), 2.0);
  ASSERT_EQ(traffic->at("per_tenant").asArray().size(), 2u);

  harness::StoredJob stored;
  stored.key = harness::jobKeyOf(res.job);
  stored.ok = true;
  stored.record = res.record;
  const std::string line = harness::JobStore::serializeLine(stored);
  EXPECT_NE(stored.key.find("traffic|OLTP|"), std::string::npos);

  const harness::StoredJob back = harness::JobStore::parseLine(line);
  ASSERT_EQ(back.record.blocks.size(), 1u);
  EXPECT_EQ(back.record.blocks[0].first, "traffic");
  // The block reads back as the run wrote it: each block, emitted at both
  // precisions, prints the same bytes.
  for (const bool roundTrip : {false, true}) {
    std::ostringstream a;
    std::ostringstream b;
    JsonWriter wa(a, roundTrip);
    JsonWriter wb(b, roundTrip);
    wa.value(*traffic);
    wb.value(back.record.blocks[0].second);
    EXPECT_EQ(a.str(), b.str());
  }
  // Byte-stable re-serialization (resume determinism relies on it).
  EXPECT_EQ(harness::JobStore::serializeLine(back), line);
}

// ------------------------------------------------------- traffic stats ----

TEST(TrafficStats, MergesShardsAndSplitsPhases) {
  TrafficStats a(2), b(2);
  TrafficRef r;
  r.tenant = 0;
  r.burst = false;
  a.record(r, 100);
  r.tenant = 1;
  r.burst = true;
  b.record(r, 300);
  r.rec.write = true;
  b.record(r, 1);
  a.merge(b);
  EXPECT_EQ(a.reads(), 2u);
  EXPECT_EQ(a.writes(), 1u);
  EXPECT_EQ(a.tenants()[0].reads, 1u);
  EXPECT_EQ(a.tenants()[1].reads, 1u);
  EXPECT_EQ(a.tenants()[1].writes, 1u);
  EXPECT_DOUBLE_EQ(a.tenants()[1].readLatency.max(), 300.0);
  // Occupancy: only read service time counts, split by arrival phase.
  EXPECT_DOUBLE_EQ(a.burstOccupancy(300, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.steadyOccupancy(200, 1), 0.5);
  EXPECT_DOUBLE_EQ(a.burstOccupancy(0, 1), 0.0);  // no elapsed time, no signal
}

// -------------------------------------------------- event-driven workload --

class TrafficWorkloadRun : public ::testing::TestWithParam<std::string> {};

TEST_P(TrafficWorkloadRun, RunsOnTheEventDrivenSystem) {
  SystemConfig cfg;
  cfg.switchDir.entries = 1024;
  Simulation sim(cfg);
  const RunMetrics m = sim.run({.workload = GetParam(), .scale = WorkloadScale::tiny()});
  EXPECT_GT(m.execTime, 0u);
  EXPECT_GT(m.reads, 0u);
  EXPECT_GT(m.sdDeposits, 0u);  // shared-segment handoffs feed the switch dirs
  EXPECT_TRUE(sim.system().quiescent());
}

INSTANTIATE_TEST_SUITE_P(Profiles, TrafficWorkloadRun, ::testing::Values("oltp", "kv"));

TEST(TrafficWorkloadRun, EventDrivenRunsAreDeterministic) {
  const auto run = [] {
    SystemConfig cfg;
    cfg.switchDir.entries = 512;
    Simulation sim(cfg);
    return sim.run({.workload = "oltp", .scale = WorkloadScale::tiny()});
  };
  const RunMetrics a = run();
  const RunMetrics b = run();
  EXPECT_EQ(a.execTime, b.execTime);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.readMisses, b.readMisses);
}

}  // namespace
}  // namespace dresar

#include "harness/run_context.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "common/txn_trace.h"
#include "sim/json_writer.h"
#include "sim/simulation.h"
#include "trace/tpc_gen.h"
#include "traffic/traffic_model.h"
#include "traffic/traffic_stats.h"

namespace dresar::harness {

namespace {

/// what() of the exception being handled; "unknown exception" for a throw
/// that is not a std::exception.
std::string currentExceptionMessage() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// A record's headline fields: the job's identity, wall time and events.
RunRecord headline(const JobSpec& job, double wallSeconds, std::uint64_t events) {
  RunRecord rec;
  rec.app = job.displayApp();
  rec.config = job.configTag();
  rec.kind = kindName(job.kind);
  rec.sdEntries = job.sdEntries;
  if (job.seed > 1) rec.seed = job.seed;
  rec.wallSeconds = wallSeconds;
  rec.events = events;
  return rec;
}

/// The standard RunRecord for an execution-driven run.
RunRecord makeSciRecord(const JobSpec& job, double wallSeconds, std::uint64_t events,
                        const RunMetrics& m) {
  RunRecord rec = headline(job, wallSeconds, events);
  rec.metric("exec_time", static_cast<double>(m.execTime));
  rec.metric("reads", static_cast<double>(m.reads));
  rec.metric("stores", static_cast<double>(m.stores));
  rec.metric("read_misses", static_cast<double>(m.readMisses));
  rec.metric("svc_clean", static_cast<double>(m.svcClean));
  rec.metric("svc_ctoc_home", static_cast<double>(m.svcCtoCHome));
  rec.metric("svc_ctoc_switch", static_cast<double>(m.svcCtoCSwitch));
  rec.metric("svc_switch_wb", static_cast<double>(m.svcSwitchWB));
  rec.metric("svc_switch_cache", static_cast<double>(m.svcSwitchCache));
  rec.metric("avg_read_latency", m.avgReadLatency);
  rec.metric("total_read_stall", m.totalReadStall);
  rec.metric("home_ctoc", static_cast<double>(m.homeCtoC));
  rec.metric("sd_deposits", static_cast<double>(m.sdDeposits));
  rec.metric("sd_ctoc_initiated", static_cast<double>(m.sdCtoCInitiated));
  rec.metric("sd_retries", static_cast<double>(m.sdRetries));
  rec.metric("net_messages", static_cast<double>(m.netMessages));
  rec.metric("retries", static_cast<double>(m.retriesObserved));
  rec.metric("backoff_cycles", static_cast<double>(m.backoffCycles));
  rec.metric("dirty_fraction", m.dirtyFraction());
  if (m.faultEnabled) {
    rec.addBlock("fault", [&m](JsonWriter& w) {
      w.beginObject();
      w.field("injected_drops", m.faultInjectedDrops);
      w.field("injected_delays", m.faultInjectedDelays);
      w.field("injected_delay_cycles", m.faultInjectedDelayCycles);
      w.field("injected_sd_losses", m.faultInjectedSdLosses);
      w.field("injected_stall_cycles", m.faultInjectedStallCycles);
      w.field("injected_effective", m.faultInjectedEffective());
      w.field("timeout_reissues", m.faultTimeoutReissues);
      w.field("recovered", m.faultRecovered);
      w.field("fallback_home_lookups", m.faultFallbackHomeLookups());
      w.endObject();
    });
  }
  if (m.congestionEnabled) {
    // Saturation scalars land in the flat metrics map too so config
    // aggregation and the trajectory gate see them without extra plumbing.
    rec.metric("offered_rate", m.congOfferedRate);
    rec.metric("accepted_rate", m.congAcceptedRate);
    rec.metric("credit_stall_cycles", static_cast<double>(m.congestion.creditStallCycles));
    rec.addBlock("congestion", [&m](JsonWriter& w) {
      const CongestionTelemetry& c = m.congestion;
      const auto hist = [&w](const std::vector<std::uint64_t>& buckets) {
        w.key("hist");
        w.beginArray();
        for (const std::uint64_t v : buckets) w.value(v);
        w.endArray();
      };
      w.beginObject();
      w.field("offered_rate", m.congOfferedRate);
      w.field("accepted_rate", m.congAcceptedRate);
      w.field("runs", m.congRuns);
      w.field("credit_stall_cycles", c.creditStallCycles);
      w.field("link_busy_skips", c.linkBusySkips);
      w.field("source_credit_stalls", c.sourceCreditStalls);
      w.key("per_switch_credit_stalls");
      w.beginArray();
      for (const std::uint64_t v : c.perSwitchCreditStalls) w.value(v);
      w.endArray();
      w.key("stage_occupancy");
      w.beginArray();
      for (std::size_t s = 0; s < c.stageOccupancy.size(); ++s) {
        w.beginObject();
        w.field("mean", c.stageOccupancy[s].mean());
        w.field("max", c.stageOccupancy[s].max());
        w.field("samples", c.stageOccupancy[s].count());
        hist(s < c.stageOccupancyHist.size() ? c.stageOccupancyHist[s].buckets()
                                             : std::vector<std::uint64_t>{});
        w.endObject();
      }
      w.endArray();
      w.key("lock_hold");
      w.beginObject();
      w.field("mean", c.lockHold.mean());
      w.field("max", c.lockHold.max());
      w.field("count", c.lockHold.count());
      hist(c.lockHoldHist.buckets());
      w.endObject();
      w.endObject();
    });
  }
  // What the reports read beyond the headline counters: Figure 1's latency
  // split and Table 1's per-type message counts.
  rec.metric("total_read_lat_ctoc", m.totalReadLatCtoC);
  rec.metric("total_read_lat_clean_miss", m.totalReadLatCleanMiss);
  for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
    rec.metric(std::string("msgs_") + toString(static_cast<MsgType>(t)),
               static_cast<double>(m.msgsByType[t]));
  }
  if (m.traceReadTxns + m.traceWriteTxns > 0) {
    rec.addBlock("latency_stages", [&m](JsonWriter& w) {
      const auto txnClass = [&w](const char* name, std::uint64_t txns, double endToEnd,
                                 const std::array<double, kTxnStageCount>& stage) {
        w.key(name);
        w.beginObject();
        w.field("txns", txns);
        w.field("end_to_end_cycles", endToEnd);
        w.key("stages");
        w.beginObject();
        for (std::size_t s = 0; s < kTxnStageCount; ++s) {
          w.field(toString(static_cast<TxnStage>(s)), stage[s]);
        }
        w.endObject();
        w.endObject();
      };
      w.beginObject();
      txnClass("read", m.traceReadTxns, m.traceReadEndToEnd, m.traceReadStage);
      txnClass("write", m.traceWriteTxns, m.traceWriteEndToEnd, m.traceWriteStage);
      w.endObject();
    });
  }
  return rec;
}

/// Trace-run counterpart of makeSciRecord(). The caller appends
/// "total_read_latency" last, after any traffic metrics.
RunRecord makeTraceRecord(const JobSpec& job, double wallSeconds, const TraceMetrics& m) {
  RunRecord rec = headline(job, wallSeconds, m.refs);
  rec.metric("exec_time", static_cast<double>(m.execTime));
  rec.metric("refs", static_cast<double>(m.refs));
  rec.metric("reads", static_cast<double>(m.reads));
  rec.metric("writes", static_cast<double>(m.writes));
  rec.metric("read_hits", static_cast<double>(m.readHits));
  rec.metric("read_misses", static_cast<double>(m.readMisses));
  rec.metric("svc_clean_local", static_cast<double>(m.svcCleanLocal));
  rec.metric("svc_clean_remote", static_cast<double>(m.svcCleanRemote));
  rec.metric("svc_ctoc_local", static_cast<double>(m.svcCtoCLocal));
  rec.metric("svc_ctoc_remote", static_cast<double>(m.svcCtoCRemote));
  rec.metric("svc_switch_dir", static_cast<double>(m.svcSwitchDir));
  rec.metric("home_ctoc", static_cast<double>(m.homeCtoC));
  rec.metric("sd_deposits", static_cast<double>(m.sdDeposits));
  rec.metric("sd_stale_retries", static_cast<double>(m.sdStaleRetries));
  rec.metric("avg_read_latency", m.avgReadLatency());
  rec.metric("dirty_fraction", m.dirtyFraction());
  return rec;
}

/// Traffic-run record: the trace metrics plus per-tenant counters, tail
/// percentiles (p99 / p99.9 read latency from the log-spaced histograms) and
/// per-phase controller occupancy. `burstElapsed` / `steadyElapsed` are the
/// model's arrival-clock cycles per phase; `numProcs` sizes the occupancy
/// denominator.
RunRecord makeTrafficRecord(const JobSpec& job, double wallSeconds, const TraceMetrics& m,
                            const TrafficStats& stats, std::uint64_t burstElapsed,
                            std::uint64_t steadyElapsed, std::uint32_t numProcs) {
  RunRecord rec = makeTraceRecord(job, wallSeconds, m);
  // Tail scalars go into the flat metrics map too, so config aggregation and
  // the baseline regression gate cover them with zero extra plumbing.
  rec.metric("p99_read_latency", stats.readLatency().percentile(0.99));
  rec.metric("p999_read_latency", stats.readLatency().percentile(0.999));
  rec.metric("burst_occupancy", stats.burstOccupancy(burstElapsed, numProcs));
  rec.metric("steady_occupancy", stats.steadyOccupancy(steadyElapsed, numProcs));
  rec.addBlock("traffic", [&](JsonWriter& w) {
    w.beginObject();
    w.field("tenants", static_cast<std::uint64_t>(stats.tenants().size()));
    w.field("p99_read_latency", stats.readLatency().percentile(0.99));
    w.field("p999_read_latency", stats.readLatency().percentile(0.999));
    w.field("p99_overflowed", stats.readLatency().percentileOverflowed(0.99));
    w.field("p999_overflowed", stats.readLatency().percentileOverflowed(0.999));
    w.field("burst_occupancy", stats.burstOccupancy(burstElapsed, numProcs));
    w.field("steady_occupancy", stats.steadyOccupancy(steadyElapsed, numProcs));
    w.field("burst_cycles", burstElapsed);
    w.field("steady_cycles", steadyElapsed);
    w.key("per_tenant");
    w.beginArray();
    for (const TenantCounters& t : stats.tenants()) {
      w.beginObject();
      w.field("reads", t.reads);
      w.field("writes", t.writes);
      w.field("mean_read_latency", t.readLatency.mean());
      w.field("max_read_latency", t.readLatency.max());
      w.endObject();
    }
    w.endArray();
    w.endObject();
  });
  rec.metric("total_read_latency", m.totalReadLatency);
  return rec;
}

/// The job's switch-directory organization.
SwitchDirConfig switchDirOf(const JobSpec& job) {
  SwitchDirConfig sd;
  sd.entries = job.sdEntries;
  sd.associativity = job.assoc;
  sd.pendingBufferEntries = job.pendingBuffer;
  sd.replacementPolicy = job.sdReplacement;
  sd.arbitrationPolicy = job.sdArbitration;
  sd.snoopInvalidations = job.snoopInval;
  return sd;
}

}  // namespace

SystemConfig systemConfigOf(const JobSpec& job) {
  SystemConfig cfg = SystemConfig::paperTable2();
  cfg.numNodes = job.numNodes;
  cfg.switchDir = switchDirOf(job);
  // The switch cache reuses the switch-directory tag organization; a policy
  // sweep exercises both structures with the same cell.
  cfg.switchCache.replacementPolicy = job.sdReplacement;
  cfg.switchCache.arbitrationPolicy = job.sdArbitration;
  cfg.txnTrace.enabled = job.traceTxns;
  cfg.fault = job.fault;
  cfg.net.routing = job.routing;
  cfg.net.flitLevel = job.flitLevel;
  cfg.net.coreDelay = job.coreDelay;
  cfg.net.linkCyclesPerFlit = job.linkCycles;
  cfg.net.bufferFlits = job.bufferFlits;
  cfg.switchCache.entries = job.switchCacheEntries;
  return cfg;
}

TraceConfig traceConfigOf(const JobSpec& job) {
  TraceConfig cfg = TraceConfig::paperTable3();
  cfg.numNodes = job.numNodes;
  cfg.switchDir = switchDirOf(job);
  return cfg;
}

TrafficConfig trafficConfigOf(const JobSpec& job) {
  TrafficConfig tc = TrafficConfig::byName(job.app, job.traceRefs);
  tc.numProcs = job.numNodes;
  tc.lineBytes = traceConfigOf(job).lineBytes;
  // Sentinel values (0 / -1.0 / 0.0 / "readmostly") mean "keep the profile
  // default" — oltp and kv ship different baselines, so the job only
  // overrides knobs the sweep actually set.
  if (job.trafficTenants != 0) tc.tenants = job.trafficTenants;
  if (job.trafficSkew >= 0.0) tc.skew = job.trafficSkew;
  if (job.trafficBurst > 0.0) tc.burstMultiplier = job.trafficBurst;
  tc.applyMix(job.trafficMix);
  if (job.seed > 1) {
    // Replica k draws an independent stream; replica 1 keeps the profile seed.
    Rng mix(job.seed);
    tc.seed ^= mix.next();
  }
  return tc;
}

std::vector<std::string> configErrors(const JobSpec& job) {
  switch (job.kind) {
    case JobKind::Scientific: {
      std::vector<std::string> errs = systemConfigOf(job).validationErrors();
      // The message-level network has no flit buffers to size.
      if (!job.flitLevel && job.bufferFlits != JobSpec{}.bufferFlits) {
        errs.emplace_back("buffer_flits only applies to flit-level cells (flit_level = 1)");
      }
      return errs;
    }
    case JobKind::Trace: return traceConfigOf(job).validationErrors();
    case JobKind::Traffic: break;
  }
  std::vector<std::string> errs = traceConfigOf(job).validationErrors();
  for (std::string& e : trafficConfigOf(job).validationErrors()) errs.push_back(std::move(e));
  return errs;
}

namespace {

JobResult executeScientific(const JobSpec& job, std::uint32_t chromePid) {
  // Offered load scales the workload's arrival clock, not the machine.
  WorkloadScale scale = job.scale;
  if (job.offeredLoad > 0.0) scale.offeredLoad = job.offeredLoad;
  Simulation sim(systemConfigOf(job));

  JobResult res;
  res.job = job;
  const auto t0 = std::chrono::steady_clock::now();
  const RunMetrics m = sim.run({.workload = job.app, .scale = scale});
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  if (job.traceTxns) {
    res.traceBody =
        sim.chromeTraceFragment(chromePid, job.displayApp() + " " + job.configTag());
  }
  res.record = makeSciRecord(job, dt.count(), sim.system().kernel().executedEvents(), m);
  return res;
}

JobResult executeTrace(const JobSpec& job) {
  TraceSimulator sim(traceConfigOf(job));
  TpcParams p = job.app == "tpcd" ? TpcParams::tpcd(job.traceRefs)
                                  : TpcParams::tpcc(job.traceRefs);
  p.numProcs = job.numNodes;
  if (job.seed > 1) {
    // Replica k draws an independent stream; replica 1 keeps the historical
    // default seed so existing single-run results stay bit-identical.
    Rng mix(job.seed);
    p.seed ^= mix.next();
  }
  TpcGenerator gen(p);

  JobResult res;
  res.job = job;
  const auto t0 = std::chrono::steady_clock::now();
  sim.run(gen);
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  res.record = makeTraceRecord(job, dt.count(), sim.metrics());
  res.record.metric("total_read_latency", sim.metrics().totalReadLatency);
  return res;
}

JobResult executeTraffic(const JobSpec& job) {
  TraceSimulator sim(traceConfigOf(job));
  const TrafficConfig tc = trafficConfigOf(job);
  TrafficModel model(tc);
  TrafficStats stats(tc.tenants);

  JobResult res;
  res.job = job;
  const auto t0 = std::chrono::steady_clock::now();
  TrafficRef ref;
  while (model.nextRef(ref)) stats.record(ref, sim.access(ref.rec));
  sim.finalize();
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  res.record = makeTrafficRecord(job, dt.count(), sim.metrics(), stats,
                                 model.burstCyclesElapsed(), model.steadyCyclesElapsed(),
                                 tc.numProcs);
  return res;
}

}  // namespace

JobResult executeJob(const JobSpec& job, std::uint32_t chromePid) {
  switch (job.kind) {
    case JobKind::Scientific: return executeScientific(job, chromePid);
    case JobKind::Traffic: return executeTraffic(job);
    case JobKind::Trace: break;
  }
  return executeTrace(job);
}

std::vector<JobResult> runJobs(const std::vector<JobSpec>& jobs, unsigned threads,
                               const JobDoneFn& onJobDone) {
  std::vector<JobResult> results(jobs.size());
  std::atomic<std::size_t> next{0};
  std::mutex doneMu;
  // Job costs differ by orders of magnitude (GAUSS at paper scale vs a
  // 200K-ref trace), so each worker claims the next unclaimed index instead
  // of a fixed share of the matrix.
  const auto work = [&] {
    for (std::size_t i = next++; i < jobs.size(); i = next++) {
      // A failed job surrenders only its own slot; siblings keep running and
      // their results are kept. The coordinator (dresar-sweep) names the
      // job (config tag, seed) in its failure summary and exits non-zero.
      try {
        results[i] = executeJob(jobs[i], static_cast<std::uint32_t>(i) + 1);
      } catch (...) {
        results[i] = JobResult{};
        results[i].job = jobs[i];
        results[i].ok = false;
        results[i].error = currentExceptionMessage();
      }
      if (onJobDone) {
        const std::lock_guard<std::mutex> lock(doneMu);
        onJobDone(results[i]);
      }
    }
  };
  const std::size_t workers = std::min<std::size_t>(threads, jobs.size());
  if (workers <= 1) {
    work();
    return results;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return results;
}

std::vector<RunRecord> canonicalRecords(const std::vector<JobResult>& results) {
  std::vector<RunRecord> records;
  for (const JobResult& r : results) {
    if (r.ok) records.push_back(r.record);
  }
  std::stable_sort(records.begin(), records.end(), [](const RunRecord& a, const RunRecord& b) {
    return std::tie(a.app, a.config, a.seed, a.kind) < std::tie(b.app, b.config, b.seed, b.kind);
  });
  return records;
}

bool writeChromeTrace(const std::string& path, const std::vector<JobResult>& results) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open --trace file '%s' for writing\n", path.c_str());
    return false;
  }
  TxnTracer::writeChromeHeader(out);
  bool first = true;
  for (const JobResult& r : results) {
    if (r.traceBody.empty()) continue;
    if (!first) out << ',';
    first = false;
    out << r.traceBody;
  }
  TxnTracer::writeChromeFooter(out);
  return static_cast<bool>(out);
}

}  // namespace dresar::harness

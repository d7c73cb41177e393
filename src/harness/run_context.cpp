#include "harness/run_context.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/rng.h"
#include "common/txn_trace.h"
#include "harness/pool.h"
#include "sim/simulation.h"
#include "trace/tpc_gen.h"
#include "traffic/traffic_model.h"

namespace dresar::harness {

void TraceExport::append(const std::string& fragment) {
  if (fragment.empty()) return;
  if (any) body += ',';
  any = true;
  body += fragment;
}

bool TraceExport::write() const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open --trace file '%s' for writing\n", path.c_str());
    return false;
  }
  TxnTracer::writeChromeHeader(out);
  out << body;
  TxnTracer::writeChromeFooter(out);
  return static_cast<bool>(out);
}

RunRecord makeSciRecord(const std::string& app, const std::string& config,
                        std::uint64_t sdEntries, double wallSeconds, std::uint64_t events,
                        const RunMetrics& m) {
  RunRecord rec;
  rec.app = app;
  rec.config = config;
  rec.kind = kindName(JobKind::Scientific);
  rec.sdEntries = sdEntries;
  rec.wallSeconds = wallSeconds;
  rec.events = events;
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
    rec.hasFault = true;
    rec.faultInjectedDrops = m.faultInjectedDrops;
    rec.faultInjectedDelays = m.faultInjectedDelays;
    rec.faultInjectedDelayCycles = m.faultInjectedDelayCycles;
    rec.faultInjectedSdLosses = m.faultInjectedSdLosses;
    rec.faultInjectedStallCycles = m.faultInjectedStallCycles;
    rec.faultInjectedEffective = m.faultInjectedEffective();
    rec.faultTimeoutReissues = m.faultTimeoutReissues;
    rec.faultRecovered = m.faultRecovered;
    rec.faultFallbackHomeLookups = m.faultFallbackHomeLookups;
  }
  if (m.congestionEnabled) {
    // Saturation scalars land in the flat metrics map too so config
    // aggregation and the trajectory gate see them without extra plumbing.
    rec.metric("offered_rate", m.congOfferedRate);
    rec.metric("accepted_rate", m.congAcceptedRate);
    rec.metric("credit_stall_cycles", static_cast<double>(m.congestion.creditStallCycles));
    rec.hasCongestion = true;
    rec.congOfferedRate = m.congOfferedRate;
    rec.congAcceptedRate = m.congAcceptedRate;
    rec.congRuns = m.congRuns;
    rec.congCreditStallCycles = m.congestion.creditStallCycles;
    rec.congLinkBusySkips = m.congestion.linkBusySkips;
    rec.congSourceCreditStalls = m.congestion.sourceCreditStalls;
    rec.congPerSwitchCreditStalls = m.congestion.perSwitchCreditStalls;
    for (std::size_t s = 0; s < m.congestion.stageOccupancy.size(); ++s) {
      RunRecord::CongestionStage row;
      row.mean = m.congestion.stageOccupancy[s].mean();
      row.max = m.congestion.stageOccupancy[s].max();
      row.samples = m.congestion.stageOccupancy[s].count();
      if (s < m.congestion.stageOccupancyHist.size()) {
        row.hist = m.congestion.stageOccupancyHist[s].buckets();
      }
      rec.congStageOccupancy.push_back(std::move(row));
    }
    rec.congLockHoldMean = m.congestion.lockHold.mean();
    rec.congLockHoldMax = m.congestion.lockHold.max();
    rec.congLockHoldCount = m.congestion.lockHold.count();
    rec.congLockHoldHist = m.congestion.lockHoldHist.buckets();
  }
  if (m.traceReadTxns + m.traceWriteTxns > 0) {
    rec.hasTrace = true;
    rec.traceReadTxns = m.traceReadTxns;
    rec.traceWriteTxns = m.traceWriteTxns;
    rec.traceReadEndToEnd = m.traceReadEndToEnd;
    rec.traceWriteEndToEnd = m.traceWriteEndToEnd;
    rec.traceReadStage = m.traceReadStage;
    rec.traceWriteStage = m.traceWriteStage;
  }
  return rec;
}

RunRecord makeTraceRecord(const std::string& app, const std::string& config,
                          std::uint64_t sdEntries, double wallSeconds, const TraceMetrics& m) {
  RunRecord rec;
  rec.app = app;
  rec.config = config;
  rec.kind = kindName(JobKind::Trace);
  rec.sdEntries = sdEntries;
  rec.wallSeconds = wallSeconds;
  rec.events = m.refs;
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

RunRecord makeTrafficRecord(const std::string& app, const std::string& config,
                            std::uint64_t sdEntries, double wallSeconds, const TraceMetrics& m,
                            const TrafficStats& stats, std::uint64_t burstElapsed,
                            std::uint64_t steadyElapsed, std::uint32_t numProcs) {
  RunRecord rec = makeTraceRecord(app, config, sdEntries, wallSeconds, m);
  rec.kind = kindName(JobKind::Traffic);
  // Tail scalars go into the flat metrics map too, so config aggregation and
  // the baseline regression gate cover them with zero extra plumbing.
  rec.metric("p99_read_latency", stats.readLatency().percentile(0.99));
  rec.metric("p999_read_latency", stats.readLatency().percentile(0.999));
  rec.metric("burst_occupancy", stats.burstOccupancy(burstElapsed, numProcs));
  rec.metric("steady_occupancy", stats.steadyOccupancy(steadyElapsed, numProcs));
  rec.hasTraffic = true;
  rec.trafficTenantCount = stats.tenants().size();
  rec.trafficP99Read = stats.readLatency().percentile(0.99);
  rec.trafficP999Read = stats.readLatency().percentile(0.999);
  rec.trafficP99Overflowed = stats.readLatency().percentileOverflowed(0.99);
  rec.trafficP999Overflowed = stats.readLatency().percentileOverflowed(0.999);
  rec.trafficBurstOccupancy = stats.burstOccupancy(burstElapsed, numProcs);
  rec.trafficSteadyOccupancy = stats.steadyOccupancy(steadyElapsed, numProcs);
  rec.trafficBurstCycles = burstElapsed;
  rec.trafficSteadyCycles = steadyElapsed;
  for (const TenantCounters& t : stats.tenants()) {
    RunRecord::TrafficTenant row;
    row.reads = t.reads;
    row.writes = t.writes;
    row.meanReadLatency = t.readLatency.mean();
    row.maxReadLatency = t.readLatency.max();
    rec.trafficPerTenant.push_back(row);
  }
  return rec;
}

namespace {

/// The job's switch-directory organization: its template plus the swept knobs.
SwitchDirConfig switchDirOf(const JobSpec& job) {
  SwitchDirConfig sd = job.sdTemplate;
  sd.entries = job.sdEntries;
  sd.associativity = job.assoc;
  sd.pendingBufferEntries = job.pendingBuffer;
  sd.replacementPolicy = job.sdReplacement;
  sd.arbitrationPolicy = job.sdArbitration;
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
    case JobKind::Scientific: return systemConfigOf(job).validationErrors();
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
  const SystemConfig cfg = systemConfigOf(job);
  Simulation sim(cfg);

  JobResult res;
  res.job = job;
  const auto t0 = std::chrono::steady_clock::now();
  res.sci = sim.run({.workload = job.app, .scale = scale});
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  res.wallSeconds = dt.count();
  if (job.traceTxns) {
    res.traceBody =
        sim.chromeTraceFragment(chromePid, job.displayApp() + " " + job.configTag());
  }
  res.record = makeSciRecord(job.displayApp(), job.configTag(), job.sdEntries,
                             res.wallSeconds, sim.system().kernel().executedEvents(), res.sci);
  if (job.seed > 1) res.record.seed = job.seed;
  return res;
}

JobResult executeTrace(const JobSpec& job) {
  const TraceConfig cfg = traceConfigOf(job);
  TraceSimulator sim(cfg);
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
  res.wallSeconds = dt.count();
  res.trace = sim.metrics();
  res.record = makeTraceRecord(job.displayApp(), job.configTag(), job.sdEntries,
                               res.wallSeconds, res.trace);
  if (job.seed > 1) res.record.seed = job.seed;
  return res;
}

JobResult executeTraffic(const JobSpec& job) {
  const TraceConfig cfg = traceConfigOf(job);
  TraceSimulator sim(cfg);
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
  res.wallSeconds = dt.count();
  res.trace = sim.metrics();
  res.record = makeTrafficRecord(job.displayApp(), job.configTag(), job.sdEntries,
                                 res.wallSeconds, res.trace, stats,
                                 model.burstCyclesElapsed(), model.steadyCyclesElapsed(),
                                 tc.numProcs);
  if (job.seed > 1) res.record.seed = job.seed;
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

std::vector<JobResult> runJobs(RunContext& ctx, const std::vector<JobSpec>& jobs,
                               unsigned threads, const JobDoneFn& onJobDone) {
  std::vector<JobResult> results(jobs.size());
  WorkStealingPool pool(threads);
  // Per-worker recorders: workers never touch shared state while running;
  // the coordinator merges after the join and canonicalizes the order so the
  // serialized document is invariant under scheduling (and under --jobs=N).
  std::vector<RunRecorder> workerRecorders(pool.threads());
  std::mutex doneMu;
  // Pid block is claimed up front so repeated runJobs() calls against the
  // same context keep allocating distinct, order-stable Chrome pids.
  const std::uint32_t pidBase = ctx.traceExport.nextPid;
  pool.forEach(jobs.size(), [&](std::size_t i, unsigned w) {
    // A failed job surrenders only its own slot; siblings keep running and
    // their results are kept. The coordinator (dresar-sweep) names the
    // job (config tag, seed) in its failure summary and exits non-zero.
    try {
      results[i] = executeJob(jobs[i], pidBase + static_cast<std::uint32_t>(i));
    } catch (const std::exception& e) {
      results[i] = JobResult{};
      results[i].job = jobs[i];
      results[i].ok = false;
      results[i].error = e.what();
    }
    if (results[i].ok) workerRecorders[w].add(results[i].record);
    if (onJobDone) {
      const std::lock_guard<std::mutex> lock(doneMu);
      onJobDone(results[i]);
    }
  });
  for (RunRecorder& r : workerRecorders) ctx.recorder.merge(std::move(r));
  ctx.recorder.sortCanonical();
  ctx.traceExport.nextPid = pidBase + static_cast<std::uint32_t>(jobs.size());
  if (ctx.traceExport.enabled) {
    for (const JobResult& res : results) ctx.traceExport.append(res.traceBody);
  }
  return results;
}

}  // namespace dresar::harness

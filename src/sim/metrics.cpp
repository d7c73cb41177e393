#include "sim/metrics.h"

#include "sim/system.h"

namespace dresar {

RunMetrics RunMetrics::collect(const System& sys, const std::string& workload) {
  RunMetrics m;
  m.workload = workload;
  const StatRegistry& st = sys.stats();

  Cycle finish = 0;
  for (NodeId n = 0; n < sys.config().numNodes; ++n) {
    const ThreadContext& ctx = sys.ctx(n);
    m.reads += ctx.loads();
    m.stores += ctx.stores();
    m.totalReadStall += static_cast<double>(ctx.readStallCycles());
    if (ctx.finishTime() > finish) finish = ctx.finishTime();
    m.homeCtoC += sys.dir(n).homeCtoCForwards();
  }
  m.execTime = finish;

  m.svcClean = st.counterValue("svc.CleanMemory");
  m.svcCtoCHome = st.counterValue("svc.CtoCHome");
  m.svcCtoCSwitch = st.counterValue("svc.CtoCSwitchDir");
  m.svcSwitchWB = st.counterValue("svc.SwitchWriteBack");
  m.svcSwitchCache = st.counterValue("svc.SwitchCache");
  m.readMisses = m.svcClean + m.svcCtoCHome + m.svcCtoCSwitch + m.svcSwitchWB + m.svcSwitchCache;

  if (const Sampler* s = st.findSampler("cpu.read_latency"); s != nullptr) {
    m.avgReadLatency = s->mean();
  }
  if (const Sampler* s = st.findSampler("cpu.read_latency.ctoc"); s != nullptr) {
    m.totalReadLatCtoC = s->sum();
  }
  if (const Sampler* s = st.findSampler("cpu.read_latency.clean"); s != nullptr) {
    m.totalReadLatClean = s->sum();
  }
  if (const Sampler* s = st.findSampler("cpu.read_latency.clean_miss"); s != nullptr) {
    m.totalReadLatCleanMiss = s->sum();
  }

  const DresarManager& sd = sys.dresar();
  if (sd.enabled()) {
    m.sdDeposits = sd.deposits();
    m.sdCtoCInitiated = sd.ctocInitiated();
    m.sdWriteBackServes = sd.writeBackServes();
    m.sdCopyBackServes = sd.copyBackServes();
    m.sdRetries = sd.readRetries() + sd.writeRetries();
  }
  m.netMessages = st.sumByPrefix("net.msgs.");
  for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
    m.msgsByType[t] =
        st.counterValue(std::string("net.msgs.") + toString(static_cast<MsgType>(t)));
  }
  std::uint64_t retries = 0;
  for (NodeId n = 0; n < sys.config().numNodes; ++n) {
    retries += st.counterValue("cache." + std::to_string(n) + ".retries");
  }
  m.retriesObserved = retries;
  for (NodeId n = 0; n < sys.config().numNodes; ++n) {
    m.backoffCycles += st.counterValue("cache." + std::to_string(n) + ".backoff_cycles");
  }

  if (sys.faultInjector() != nullptr) {
    m.faultEnabled = true;
    m.faultInjectedDrops = st.counterValue("fault.injected_drops");
    m.faultInjectedDelays = st.counterValue("fault.injected_delays");
    m.faultInjectedDelayCycles = st.counterValue("fault.injected_delay_cycles");
    m.faultInjectedSdLosses = st.counterValue("fault.injected_sd_losses");
    m.faultInjectedStallCycles = st.counterValue("fault.injected_stall_cycles");
    m.faultTimeoutReissues = st.counterValue("fault.timeout_reissues");
    m.faultRecovered = st.counterValue("fault.recovered");
    m.faultFallbackHomeLookups = st.counterValue("fault.fallback_home_lookups");
  }

  if (const CongestionTelemetry* ct = sys.net().congestion(); ct != nullptr) {
    m.congestionEnabled = true;
    m.congRuns = 1;
    m.congestion = *ct;
  }

  const TxnTracer& tr = sys.txnTracer();
  if (tr.enabled()) {
    const TxnTracer::Totals& rt = tr.readTotals();
    const TxnTracer::Totals& wt = tr.writeTotals();
    m.traceReadTxns = rt.txns;
    m.traceWriteTxns = wt.txns;
    m.traceReadEndToEnd = rt.endToEnd;
    m.traceWriteEndToEnd = wt.endToEnd;
    m.traceReadStage = rt.stage;
    m.traceWriteStage = wt.stage;
  }
  return m;
}

double reductionPct(double base, double with) {
  if (base <= 0.0) return 0.0;
  return (1.0 - with / base) * 100.0;
}

}  // namespace dresar

#include "sim/run_recorder.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <tuple>

#include "sim/json_writer.h"

namespace dresar {

void RunRecorder::merge(RunRecorder&& other) {
  if (bench_.empty()) bench_ = std::move(other.bench_);
  for (auto& opt : other.options_) options_.push_back(std::move(opt));
  runs_.reserve(runs_.size() + other.runs_.size());
  for (auto& r : other.runs_) runs_.push_back(std::move(r));
  other.options_.clear();
  other.runs_.clear();
}

void RunRecorder::sortCanonical() {
  std::stable_sort(runs_.begin(), runs_.end(), [](const RunRecord& a, const RunRecord& b) {
    return std::tie(a.app, a.config, a.seed, a.kind) < std::tie(b.app, b.config, b.seed, b.kind);
  });
}

namespace {

void writeFaultJson(JsonWriter& w, const RunRecord& r) {
  w.key("fault");
  w.beginObject();
  w.field("injected_drops", r.faultInjectedDrops);
  w.field("injected_delays", r.faultInjectedDelays);
  w.field("injected_delay_cycles", r.faultInjectedDelayCycles);
  w.field("injected_sd_losses", r.faultInjectedSdLosses);
  w.field("injected_stall_cycles", r.faultInjectedStallCycles);
  w.field("injected_effective", r.faultInjectedEffective);
  w.field("timeout_reissues", r.faultTimeoutReissues);
  w.field("recovered", r.faultRecovered);
  w.field("fallback_home_lookups", r.faultFallbackHomeLookups);
  w.endObject();
}

void writeTrafficJson(JsonWriter& w, const RunRecord& r) {
  w.key("traffic");
  w.beginObject();
  w.field("tenants", r.trafficTenantCount);
  w.field("p99_read_latency", r.trafficP99Read);
  w.field("p999_read_latency", r.trafficP999Read);
  w.field("p99_overflowed", r.trafficP99Overflowed);
  w.field("p999_overflowed", r.trafficP999Overflowed);
  w.field("burst_occupancy", r.trafficBurstOccupancy);
  w.field("steady_occupancy", r.trafficSteadyOccupancy);
  w.field("burst_cycles", r.trafficBurstCycles);
  w.field("steady_cycles", r.trafficSteadyCycles);
  w.key("per_tenant");
  w.beginArray();
  for (const RunRecord::TrafficTenant& t : r.trafficPerTenant) {
    w.beginObject();
    w.field("reads", t.reads);
    w.field("writes", t.writes);
    w.field("mean_read_latency", t.meanReadLatency);
    w.field("max_read_latency", t.maxReadLatency);
    w.endObject();
  }
  w.endArray();
  w.endObject();
}

void writeCongestionJson(JsonWriter& w, const RunRecord& r) {
  w.key("congestion");
  w.beginObject();
  w.field("offered_rate", r.congOfferedRate);
  w.field("accepted_rate", r.congAcceptedRate);
  w.field("runs", r.congRuns);
  w.field("credit_stall_cycles", r.congCreditStallCycles);
  w.field("link_busy_skips", r.congLinkBusySkips);
  w.field("source_credit_stalls", r.congSourceCreditStalls);
  w.key("per_switch_credit_stalls");
  w.beginArray();
  for (std::uint64_t v : r.congPerSwitchCreditStalls) w.value(v);
  w.endArray();
  w.key("stage_occupancy");
  w.beginArray();
  for (const RunRecord::CongestionStage& s : r.congStageOccupancy) {
    w.beginObject();
    w.field("mean", s.mean);
    w.field("max", s.max);
    w.field("samples", s.samples);
    w.key("hist");
    w.beginArray();
    for (std::uint64_t v : s.hist) w.value(v);
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.key("lock_hold");
  w.beginObject();
  w.field("mean", r.congLockHoldMean);
  w.field("max", r.congLockHoldMax);
  w.field("count", r.congLockHoldCount);
  w.key("hist");
  w.beginArray();
  for (std::uint64_t v : r.congLockHoldHist) w.value(v);
  w.endArray();
  w.endObject();
  w.endObject();
}

}  // namespace

void writeRecordBlocks(JsonWriter& w, const RunRecord& r) {
  if (r.hasFault) writeFaultJson(w, r);
  if (r.hasTraffic) writeTrafficJson(w, r);
  if (r.hasCongestion) writeCongestionJson(w, r);
}

const char* resultSchema(const std::vector<RunRecord>& runs, const char* plain) {
  const auto any = [&runs](bool RunRecord::*block) {
    return std::any_of(runs.begin(), runs.end(), [block](const RunRecord& r) { return r.*block; });
  };
  return any(&RunRecord::hasCongestion) ? "dresar-bench-results/v6"
         : any(&RunRecord::hasTraffic)  ? "dresar-bench-results/v5"
         : any(&RunRecord::hasFault)    ? "dresar-bench-results/v4"
                                        : plain;
}

std::string RunRecorder::toJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  w.field("schema", resultSchema(runs_, "dresar-bench-results/v2"));
  w.field("bench", bench_);
  w.key("options");
  w.beginObject();
  for (const auto& [k, v] : options_) w.field(k, v);
  w.endObject();

  double wallTotal = 0.0;
  std::uint64_t eventsTotal = 0;
  for (const RunRecord& r : runs_) {
    wallTotal += r.wallSeconds;
    eventsTotal += r.events;
  }
  w.field("wall_seconds_total", wallTotal);
  w.field("sim_events_total", eventsTotal);
  w.field("events_per_sec", wallTotal > 0.0 ? static_cast<double>(eventsTotal) / wallTotal : 0.0);

  w.key("runs");
  w.beginArray();
  for (const RunRecord& r : runs_) {
    w.beginObject();
    w.field("app", r.app);
    w.field("config", r.config);
    w.field("kind", r.kind);
    w.field("sd_entries", r.sdEntries);
    if (r.seed != 0) w.field("seed", r.seed);
    w.field("wall_seconds", r.wallSeconds);
    w.field("events", r.events);
    w.field("events_per_sec",
            r.wallSeconds > 0.0 ? static_cast<double>(r.events) / r.wallSeconds : 0.0);
    w.key("metrics");
    w.beginObject();
    for (const auto& [k, v] : r.metrics) w.field(k, v);
    w.endObject();
    writeRecordBlocks(w, r);
    if (r.hasTrace) {
      const auto emitClass = [&w](const char* name, std::uint64_t txns, double endToEnd,
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
      w.key("latency_stages");
      w.beginObject();
      emitClass("read", r.traceReadTxns, r.traceReadEndToEnd, r.traceReadStage);
      emitClass("write", r.traceWriteTxns, r.traceWriteEndToEnd, r.traceWriteStage);
      w.endObject();
    }
    w.endObject();
  }
  w.endArray();
  w.endObject();
  os << '\n';
  return os.str();
}

bool RunRecorder::writeFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot open --json file '" << path << "' for writing\n";
    return false;
  }
  out << toJson();
  return static_cast<bool>(out);
}

}  // namespace dresar

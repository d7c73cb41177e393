#include "harness/job_store.h"

#include <cstdio>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/json_reader.h"
#include "sim/json_writer.h"

namespace dresar::harness {

std::string jobKeyOf(const JobSpec& job) {
  return std::string(kindName(job.kind)) + "|" + job.displayApp() + "|" + job.configTag() + "|" +
         std::to_string(job.seed);
}

JobStore::~JobStore() {
  if (out_ != nullptr) std::fclose(out_);
}

bool JobStore::open(const std::string& path, bool append) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) std::fclose(out_);
  out_ = std::fopen(path.c_str(), append ? "ab" : "wb");
  return out_ != nullptr;
}

void JobStore::append(const StoredJob& job) {
  const std::string line = serializeLine(job) + "\n";
  const std::lock_guard<std::mutex> lock(mu_);
  if (out_ == nullptr) return;
  // One whole line per write, flushed immediately: a kill between jobs loses
  // nothing, a kill mid-write leaves at most one torn final line, which the
  // loader ignores.
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fflush(out_);
}

std::string JobStore::serializeLine(const StoredJob& job) {
  std::ostringstream os;
  JsonWriter w(os, /*roundTripDoubles=*/true);
  w.beginObject();
  w.field("key", job.key);
  w.field("ok", job.ok);
  if (!job.ok) {
    w.field("error", job.error);
    w.endObject();
    return os.str();
  }
  w.field("wall_seconds", job.wallSeconds);
  const RunRecord& r = job.record;
  w.key("record");
  w.beginObject();
  w.field("app", r.app);
  w.field("config", r.config);
  w.field("kind", r.kind);
  w.field("sd_entries", r.sdEntries);
  w.field("seed", r.seed);
  w.field("wall_seconds", r.wallSeconds);
  w.field("events", r.events);
  w.key("metrics");
  w.beginObject();
  for (const auto& [k, v] : r.metrics) w.field(k, v);
  w.endObject();
  writeRecordBlocks(w, r);
  if (r.hasTrace) {
    w.key("latency");
    w.beginObject();
    w.field("read_txns", r.traceReadTxns);
    w.field("write_txns", r.traceWriteTxns);
    w.field("read_end_to_end", r.traceReadEndToEnd);
    w.field("write_end_to_end", r.traceWriteEndToEnd);
    w.key("read_stage");
    w.beginArray();
    for (const double v : r.traceReadStage) w.value(v);
    w.endArray();
    w.key("write_stage");
    w.beginArray();
    for (const double v : r.traceWriteStage) w.value(v);
    w.endArray();
    w.endObject();
  }
  w.endObject();  // record
  w.endObject();
  return os.str();
}

namespace {

std::uint64_t asU64(const JsonValue& v) {
  return static_cast<std::uint64_t>(v.asNumber());
}

}  // namespace

StoredJob JobStore::parseLine(const std::string& line) {
  const JsonValue doc = JsonValue::parse(line);
  StoredJob j;
  j.key = doc.at("key").asString();
  j.ok = doc.at("ok").asBool();
  if (!j.ok) {
    if (const JsonValue* e = doc.find("error")) j.error = e->asString();
    return j;
  }
  j.wallSeconds = doc.at("wall_seconds").asNumber();
  const JsonValue& rec = doc.at("record");
  RunRecord& r = j.record;
  r.app = rec.at("app").asString();
  r.config = rec.at("config").asString();
  r.kind = rec.at("kind").asString();
  r.sdEntries = asU64(rec.at("sd_entries"));
  r.seed = asU64(rec.at("seed"));
  r.wallSeconds = rec.at("wall_seconds").asNumber();
  r.events = asU64(rec.at("events"));
  for (const auto& [k, v] : rec.at("metrics").asObject()) r.metric(k, v.asNumber());
  if (const JsonValue* f = rec.find("fault")) {
    r.hasFault = true;
    r.faultInjectedDrops = asU64(f->at("injected_drops"));
    r.faultInjectedDelays = asU64(f->at("injected_delays"));
    r.faultInjectedDelayCycles = asU64(f->at("injected_delay_cycles"));
    r.faultInjectedSdLosses = asU64(f->at("injected_sd_losses"));
    r.faultInjectedStallCycles = asU64(f->at("injected_stall_cycles"));
    r.faultInjectedEffective = asU64(f->at("injected_effective"));
    r.faultTimeoutReissues = asU64(f->at("timeout_reissues"));
    r.faultRecovered = asU64(f->at("recovered"));
    r.faultFallbackHomeLookups = asU64(f->at("fallback_home_lookups"));
  }
  if (const JsonValue* tr = rec.find("traffic")) {
    r.hasTraffic = true;
    r.trafficTenantCount = asU64(tr->at("tenants"));
    r.trafficP99Read = tr->at("p99_read_latency").asNumber();
    r.trafficP999Read = tr->at("p999_read_latency").asNumber();
    r.trafficP99Overflowed = tr->at("p99_overflowed").asBool();
    r.trafficP999Overflowed = tr->at("p999_overflowed").asBool();
    r.trafficBurstOccupancy = tr->at("burst_occupancy").asNumber();
    r.trafficSteadyOccupancy = tr->at("steady_occupancy").asNumber();
    r.trafficBurstCycles = asU64(tr->at("burst_cycles"));
    r.trafficSteadyCycles = asU64(tr->at("steady_cycles"));
    for (const JsonValue& row : tr->at("per_tenant").asArray()) {
      RunRecord::TrafficTenant t;
      t.reads = asU64(row.at("reads"));
      t.writes = asU64(row.at("writes"));
      t.meanReadLatency = row.at("mean_read_latency").asNumber();
      t.maxReadLatency = row.at("max_read_latency").asNumber();
      r.trafficPerTenant.push_back(t);
    }
  }
  if (const JsonValue* c = rec.find("congestion")) {
    r.hasCongestion = true;
    r.congOfferedRate = c->at("offered_rate").asNumber();
    r.congAcceptedRate = c->at("accepted_rate").asNumber();
    r.congRuns = asU64(c->at("runs"));
    r.congCreditStallCycles = asU64(c->at("credit_stall_cycles"));
    r.congLinkBusySkips = asU64(c->at("link_busy_skips"));
    r.congSourceCreditStalls = asU64(c->at("source_credit_stalls"));
    for (const JsonValue& v : c->at("per_switch_credit_stalls").asArray()) {
      r.congPerSwitchCreditStalls.push_back(asU64(v));
    }
    for (const JsonValue& row : c->at("stage_occupancy").asArray()) {
      RunRecord::CongestionStage s;
      s.mean = row.at("mean").asNumber();
      s.max = row.at("max").asNumber();
      s.samples = asU64(row.at("samples"));
      for (const JsonValue& v : row.at("hist").asArray()) s.hist.push_back(asU64(v));
      r.congStageOccupancy.push_back(std::move(s));
    }
    const JsonValue& lh = c->at("lock_hold");
    r.congLockHoldMean = lh.at("mean").asNumber();
    r.congLockHoldMax = lh.at("max").asNumber();
    r.congLockHoldCount = asU64(lh.at("count"));
    for (const JsonValue& v : lh.at("hist").asArray()) r.congLockHoldHist.push_back(asU64(v));
  }
  if (const JsonValue* t = rec.find("latency")) {
    r.hasTrace = true;
    r.traceReadTxns = asU64(t->at("read_txns"));
    r.traceWriteTxns = asU64(t->at("write_txns"));
    r.traceReadEndToEnd = t->at("read_end_to_end").asNumber();
    r.traceWriteEndToEnd = t->at("write_end_to_end").asNumber();
    const auto readStage = [&](const char* key, auto& dst) {
      const std::vector<JsonValue>& a = t->at(key).asArray();
      if (a.size() != dst.size()) {
        throw std::runtime_error("job store: latency stage arity mismatch");
      }
      for (std::size_t i = 0; i < a.size(); ++i) dst[i] = a[i].asNumber();
    };
    readStage("read_stage", r.traceReadStage);
    readStage("write_stage", r.traceWriteStage);
  }
  return j;
}

std::vector<StoredJob> JobStore::loadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("job store: cannot read '" + path + "'");
  std::vector<StoredJob> out;
  std::string line;
  std::string pendingError;   // malformed line, fatal only if more lines follow
  std::size_t pendingLineNo = 0;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    if (!pendingError.empty()) {
      throw std::runtime_error("job store '" + path + "' line " +
                               std::to_string(pendingLineNo) + ": " + pendingError);
    }
    try {
      out.push_back(parseLine(line));
    } catch (const std::exception& e) {
      // Tolerated if this turns out to be the final line (torn write from a
      // killed campaign); fatal if any valid line follows it.
      pendingError = e.what();
      pendingLineNo = lineNo;
    }
  }
  return out;
}

}  // namespace dresar::harness

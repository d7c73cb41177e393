// Host-speed benchmark of the DRESAR simulator.
//
//   perfbench --workload <paper_sci|hotspot_flit|commercial_trace> --seed <n>
//             --seconds <s> --trace <0|1> --out <dir>
//
// A workload is a fixed, closed batch of simulation cells run back to back
// in this one process, single-threaded (sim_threads = 1, no job pool). The
// batch is repeated ("rounds") until --seconds have passed. Set-up and span
// times are medians over rounds; the timed body is the 90th percentile over
// rounds (see roundWall). Each cell drives the layers' public entry points
// directly (System, makeWorkload, Workload::setup/verify, System::run,
// ProtocolChecker::check, RunMetrics::collect, TraceSimulator::access/
// finalize, TpcGenerator, TrafficModel, TrafficStats) so spans can sit at
// each layer boundary.
//
// Every cell starts from a freshly built machine: simulated caches, directories
// and switch directories start empty, and statistics cover the whole run
// including cold misses. The model has no real-hardware reference results in
// this repository, so it is unvalidated and no error figure is given.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. A detail record (per-cell simulated outputs, per-round samples,
// span self times) is written under --out; a traced run also writes its spans
// there as Chrome trace_event JSON.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/txn_trace.h"
#include "sim/checker.h"
#include "sim/metrics.h"
#include "sim/system.h"
#include "spans.h"
#include "trace/tpc_gen.h"
#include "trace/trace_sim.h"
#include "traffic/traffic_model.h"
#include "traffic/traffic_stats.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

using namespace dresar;
using Scope = SpanRecorder::Scope;

// ---------------------------------------------------------------- cells

enum class Stream { TpcC, TpcD, KvReadMostly, KvWriteHeavy };

struct CellSpec {
  std::string label;
  bool traceDriven = false;
  // Execution-driven cells.
  std::string workload;
  WorkloadScale scale;
  SystemConfig sys;
  // Trace-driven cells.
  Stream stream = Stream::TpcC;
  std::uint64_t refs = 0;
  std::uint64_t streamSeed = 0;
  TraceConfig trace;
};

struct WorkloadDef {
  std::string name;
  std::string inputs;  ///< how the seed reaches the inputs
  std::vector<CellSpec> cells;
};

// Problem sizes for paper_sci, picked so that no kernel dominates the round
// (at paper scale SOR alone is about two thirds of the events) while every
// kernel still overflows its working set well past the 16 KB L1.
WorkloadScale paperSciScale() {
  WorkloadScale s;
  s.fftPoints = 8192;
  s.sorN = 192;
  s.sorIters = 4;
  s.tcN = 80;
  s.fwaN = 64;
  s.gaussN = 80;
  return s;
}

constexpr std::uint64_t kHotspotRefsPerNode = 1000;
constexpr double kHotspotOfferedLoad = 2.0;  // past the accepted-rate plateau
constexpr std::uint64_t kTraceRefsPerCell = 400'000;

WorkloadDef makePaperSci() {
  WorkloadDef d;
  d.name = "paper_sci";
  d.inputs = "seed-independent: the five kernels are RNG-free";
  for (const char* k : {"fft", "tc", "sor", "fwa", "gauss"}) {
    for (const std::uint32_t entries : {0u, 1024u}) {
      CellSpec c;
      c.label = std::string(k) + (entries == 0 ? "/base" : "/sd1024");
      c.workload = k;
      c.scale = paperSciScale();
      c.sys = SystemConfig::paperTable2();
      c.sys.switchDir.entries = entries;
      d.cells.push_back(c);
    }
  }
  return d;
}

WorkloadDef makeHotspotFlit() {
  WorkloadDef d;
  d.name = "hotspot_flit";
  d.inputs = "seed-independent: the hotspot profile uses its fixed built-in seed";
  CellSpec c;
  c.label = "hotspot/flit-adaptive-sd1024";
  c.workload = "hotspot";
  c.scale.trafficRefsPerNode = kHotspotRefsPerNode;
  c.scale.offeredLoad = kHotspotOfferedLoad;
  c.sys = SystemConfig::paperTable2();
  c.sys.switchDir.entries = 1024;
  c.sys.net.flitLevel = true;
  c.sys.net.routing = "adaptive";
  d.cells.push_back(c);
  return d;
}

WorkloadDef makeCommercialTrace(std::uint64_t seed) {
  WorkloadDef d;
  d.name = "commercial_trace";
  d.inputs = "seeded: --seed drives the TPC-C, TPC-D and kv reference streams";
  const std::pair<Stream, const char*> streams[] = {{Stream::TpcC, "tpcc"},
                                                    {Stream::TpcD, "tpcd"},
                                                    {Stream::KvReadMostly, "kv-readmostly"},
                                                    {Stream::KvWriteHeavy, "kv-writeheavy"}};
  std::uint64_t salt = 0;
  for (const auto& [stream, label] : streams) {
    CellSpec c;
    c.label = std::string(label) + "/sd1024";
    c.traceDriven = true;
    c.stream = stream;
    c.refs = kTraceRefsPerCell;
    c.streamSeed = Rng(seed * 0x100 + ++salt).next();
    c.trace = TraceConfig::paperTable3();
    c.trace.switchDir.entries = 1024;
    d.cells.push_back(c);
  }
  return d;
}

WorkloadDef makeWorkloadDef(const std::string& name, std::uint64_t seed) {
  if (name == "paper_sci") return makePaperSci();
  if (name == "hotspot_flit") return makeHotspotFlit();
  if (name == "commercial_trace") return makeCommercialTrace(seed);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (want paper_sci, hotspot_flit or commercial_trace)");
}

// ---------------------------------------------------------------- outcomes

/// A cell's simulated output: what a host-speed change must leave identical.
using SimRecord = std::vector<std::pair<std::string, double>>;

struct CellOutcome {
  std::vector<std::string> errors;  ///< empty = the cell succeeded
  SimRecord record;
  std::map<std::string, double> counts;  ///< per-layer counts, exact
  double refs = 0.0;
  double setupSeconds = 0.0;
  double bodySeconds = 0.0;
};

std::uint64_t sumPerNode(const StatRegistry& st, std::uint32_t nodes, const char* prefix,
                         const char* suffix) {
  std::uint64_t v = 0;
  for (NodeId n = 0; n < nodes; ++n) {
    v += st.counterValue(std::string(prefix) + std::to_string(n) + "." + suffix);
  }
  return v;
}

SimTask procWrapper(Workload& w, System& sys, ThreadContext& ctx) {
  co_await w.body(sys, ctx);
  co_await ctx.fence();  // release consistency: retire every store
  ctx.markDone(ctx.now());
}

void collectExec(const System& sys, const RunMetrics& m, CellOutcome& out) {
  const StatRegistry& st = sys.stats();
  const std::uint32_t nodes = sys.config().numNodes;
  const double switchCtoC = static_cast<double>(m.svcCtoCSwitch + m.svcSwitchWB);
  out.refs = static_cast<double>(m.reads + m.stores);
  out.record = {{"exec_cycles", static_cast<double>(m.execTime)},
                {"refs", out.refs},
                {"read_misses", static_cast<double>(m.readMisses)},
                {"svc_clean", static_cast<double>(m.svcClean)},
                {"svc_ctoc_home", static_cast<double>(m.svcCtoCHome)},
                {"svc_ctoc_switch", static_cast<double>(m.svcCtoCSwitch)},
                {"svc_switch_wb", static_cast<double>(m.svcSwitchWB)},
                {"svc_switch_cache", static_cast<double>(m.svcSwitchCache)},
                {"home_ctoc", static_cast<double>(m.homeCtoC)},
                {"switch_ctoc", switchCtoC},
                {"avg_read_latency", m.avgReadLatency}};

  // The read-service classification is counted per completed load; the
  // controllers count each miss once when its MSHR is allocated and each
  // load that joins an outstanding MSHR as merged. Both must agree.
  const std::uint64_t missesCounted = sumPerNode(st, nodes, "cache.", "read_misses") +
                                      sumPerNode(st, nodes, "cache.", "read_merged");
  if (m.readMisses != missesCounted) {
    out.errors.push_back("read classification sums to " + std::to_string(m.readMisses) +
                         " but the controllers counted " + std::to_string(missesCounted) +
                         " read misses");
  }

  auto& c = out.counts;
  c["common.events"] += static_cast<double>(sys.kernel().executedEvents());
  c["exec.refs"] += out.refs;
  for (const char* k : {"reads", "l1_hits", "l2_hits", "read_misses", "mshr_full_stalls",
                        "retries", "backoff_cycles"}) {
    c[std::string("coherence.") + k] += static_cast<double>(sumPerNode(st, nodes, "cache.", k));
  }
  c["coherence.home_ctoc"] += static_cast<double>(m.homeCtoC);
  c["interconnect.messages"] += static_cast<double>(m.netMessages);
  c["interconnect.sunk"] += static_cast<double>(st.counterValue("net.sunk"));
  c["interconnect.link_busy_cycles"] += static_cast<double>(st.counterValue("net.link.busy_cycles"));
  c["interconnect.flits"] += static_cast<double>(st.counterValue("flit.transmitted"));
  c["interconnect.flit_grants"] += static_cast<double>(st.counterValue("flit.grants"));
  c["interconnect.credit_stall_cycles"] += static_cast<double>(m.congestion.creditStallCycles);
  c["switchdir.deposits"] += static_cast<double>(m.sdDeposits);
  c["switchdir.ctoc_initiated"] += static_cast<double>(m.sdCtoCInitiated);
  c["switchdir.retries"] += static_cast<double>(m.sdRetries);
  c["switchdir.switch_ctoc"] += switchCtoC;
  c["switchdir.home_ctoc"] += static_cast<double>(m.svcCtoCHome);
  c["sim.exec_cycles"] += static_cast<double>(m.execTime);
  if (sys.txnTracer().enabled()) {
    for (std::size_t i = 0; i < kTxnStageCount; ++i) {
      c[std::string("sim.read_stage.") + toString(static_cast<TxnStage>(i))] +=
          m.traceReadStage[i];
    }
  }
}

CellOutcome runExecCell(const CellSpec& spec, SpanRecorder& rec, bool txnTrace) {
  CellOutcome out;
  SystemConfig cfg = spec.sys;
  cfg.txnTrace.enabled = txnTrace;
  const auto t0 = Clock::now();
  std::unique_ptr<System> sys;
  std::unique_ptr<Workload> w;
  {
    Scope s(rec, "sim.build");
    sys = std::make_unique<System>(cfg);
  }
  {
    Scope s(rec, "workloads.setup");
    w = makeWorkload(spec.workload, spec.scale);
    w->setup(*sys);
  }
  const auto t1 = Clock::now();
  {
    Scope s(rec, "sim.run");
    for (NodeId n = 0; n < cfg.numNodes; ++n) sys->spawn(n, procWrapper(*w, *sys, sys->ctx(n)));
    sys->run();
  }
  if (!sys->quiescent()) out.errors.push_back("system not quiescent after the run");
  WorkloadResult verified;
  {
    Scope s(rec, "workloads.verify");
    verified = w->verify(*sys);
  }
  if (!verified.ok) out.errors.push_back("verification failed: " + verified.detail);
  CheckReport report;
  {
    Scope s(rec, "sim.check");
    report = ProtocolChecker::check(*sys);
  }
  if (!report.ok()) out.errors.push_back("protocol check failed: " + report.summary());
  RunMetrics m;
  {
    Scope s(rec, "sim.collect");
    m = RunMetrics::collect(*sys, w->name());
    w->annotate(m);
  }
  collectExec(*sys, m, out);
  {
    Scope s(rec, "sim.teardown");
    w.reset();
    sys.reset();
  }
  const auto t2 = Clock::now();
  out.setupSeconds = secondsBetween(t0, t1);
  out.bodySeconds = secondsBetween(t1, t2);
  return out;
}

void collectTrace(const TraceMetrics& m, const TrafficStats* traffic, CellOutcome& out) {
  out.refs = static_cast<double>(m.refs);
  out.record = {{"exec_cycles", static_cast<double>(m.execTime)},
                {"refs", out.refs},
                {"read_misses", static_cast<double>(m.readMisses)},
                {"svc_clean_local", static_cast<double>(m.svcCleanLocal)},
                {"svc_clean_remote", static_cast<double>(m.svcCleanRemote)},
                {"svc_ctoc_local", static_cast<double>(m.svcCtoCLocal)},
                {"svc_ctoc_remote", static_cast<double>(m.svcCtoCRemote)},
                {"svc_switch_dir", static_cast<double>(m.svcSwitchDir)},
                {"home_ctoc", static_cast<double>(m.homeCtoC)},
                {"switch_ctoc", static_cast<double>(m.svcSwitchDir)},
                {"avg_read_latency", m.avgReadLatency()}};
  if (traffic != nullptr) {
    out.record.emplace_back("read_p99", traffic->readLatency().percentile(0.99));
  }
  const std::uint64_t classified =
      m.svcCleanLocal + m.svcCleanRemote + m.svcCtoCLocal + m.svcCtoCRemote + m.svcSwitchDir;
  if (classified != m.readMisses) {
    out.errors.push_back("read classification sums to " + std::to_string(classified) +
                         " but " + std::to_string(m.readMisses) + " read misses were counted");
  }
  auto& c = out.counts;
  c["trace.refs"] += out.refs;
  c["trace.read_misses"] += static_cast<double>(m.readMisses);
  c["trace.svc_switch_dir"] += static_cast<double>(m.svcSwitchDir);
  c["trace.sd_stale_retries"] += static_cast<double>(m.sdStaleRetries);
  c["switchdir.deposits"] += static_cast<double>(m.sdDeposits);
  c["switchdir.ctoc_initiated"] += static_cast<double>(m.svcSwitchDir);
  c["switchdir.retries"] += static_cast<double>(m.sdStaleRetries);
  c["switchdir.switch_ctoc"] += static_cast<double>(m.svcSwitchDir);
  c["switchdir.home_ctoc"] += static_cast<double>(m.homeCtoC);
  c["sim.exec_cycles"] += static_cast<double>(m.execTime);
}

// Records are pulled and fed in blocks so a span costs two clock reads per
// block, not per ~0.5 us access.
constexpr std::size_t kTraceBlock = 4096;

CellOutcome runTraceCell(const CellSpec& spec, SpanRecorder& rec) {
  CellOutcome out;
  const bool kv = spec.stream == Stream::KvReadMostly || spec.stream == Stream::KvWriteHeavy;
  const auto t0 = Clock::now();
  std::unique_ptr<TraceSimulator> sim;
  std::unique_ptr<TpcGenerator> tpc;
  std::unique_ptr<TrafficModel> model;
  std::unique_ptr<TrafficStats> stats;
  {
    Scope s(rec, "sim.build");
    sim = std::make_unique<TraceSimulator>(spec.trace);
  }
  {
    Scope s(rec, "workloads.setup");
    if (kv) {
      TrafficConfig tc = TrafficConfig::kv(spec.refs);
      tc.numProcs = spec.trace.numNodes;
      tc.lineBytes = spec.trace.lineBytes;
      tc.applyMix(spec.stream == Stream::KvWriteHeavy ? "writeheavy" : "readmostly");
      tc.seed ^= spec.streamSeed;
      model = std::make_unique<TrafficModel>(tc);
      stats = std::make_unique<TrafficStats>(tc.tenants);
    } else {
      TpcParams p = spec.stream == Stream::TpcD ? TpcParams::tpcd(spec.refs)
                                                : TpcParams::tpcc(spec.refs);
      p.numProcs = spec.trace.numNodes;
      p.lineBytes = spec.trace.lineBytes;
      p.seed ^= spec.streamSeed;
      tpc = std::make_unique<TpcGenerator>(p);
    }
  }
  const auto t1 = Clock::now();
  std::vector<TraceRecord> records(kTraceBlock);
  std::vector<TrafficRef> refs(kv ? kTraceBlock : 0);
  std::vector<Cycle> latency(kv ? kTraceBlock : 0);
  for (bool more = true; more;) {
    std::size_t n = 0;
    if (kv) {
      Scope s(rec, "traffic.gen");
      while (n < kTraceBlock && model->nextRef(refs[n])) ++n;
    } else {
      Scope s(rec, "trace.gen");
      while (n < kTraceBlock && tpc->next(records[n])) ++n;
    }
    more = n == kTraceBlock;
    {
      Scope s(rec, "trace.access");
      if (kv) {
        for (std::size_t i = 0; i < n; ++i) latency[i] = sim->access(refs[i].rec);
      } else {
        for (std::size_t i = 0; i < n; ++i) sim->access(records[i]);
      }
    }
    if (kv) {
      Scope s(rec, "traffic.stats");
      for (std::size_t i = 0; i < n; ++i) stats->record(refs[i], latency[i]);
    }
  }
  {
    Scope s(rec, "trace.access");
    sim->finalize();
  }
  TraceMetrics m;
  {
    Scope s(rec, "sim.collect");
    m = sim->metrics();
  }
  collectTrace(m, stats.get(), out);
  if (m.refs != spec.refs) {
    out.errors.push_back("stream under-ran: " + std::to_string(m.refs) + " of " +
                         std::to_string(spec.refs) + " records");
  }
  {
    Scope s(rec, "sim.teardown");
    sim.reset();
    tpc.reset();
    model.reset();
    stats.reset();
  }
  const auto t2 = Clock::now();
  out.setupSeconds = secondsBetween(t0, t1);
  out.bodySeconds = secondsBetween(t1, t2);
  return out;
}

CellOutcome runCell(const CellSpec& spec, SpanRecorder& rec, bool txnTrace) {
  Scope s(rec, "bench.cell");
  try {
    return spec.traceDriven ? runTraceCell(spec, rec) : runExecCell(spec, rec, txnTrace);
  } catch (const std::exception& e) {
    CellOutcome out;
    out.errors.push_back(std::string("threw: ") + e.what());
    return out;
  }
}

// ---------------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q) {
  // Linear interpolation between order statistics (numpy's default).
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Body time of a round as reported: the 90th percentile over rounds. On a host
// shared with other tenants, rounds run at a steady contended speed broken by
// quiet spells up to ~1.75x faster, and the share of quiet time differs from
// run to run. The median mixes the two states; the slow tail tracks the
// contended one. Between-run IQR/median over 10-run sets on a 4-vCPU KVM guest
// (Xeon Sapphire Rapids): median 0.07-0.34, 90th percentile 0.03-0.20. The
// maximum was steadier still but is one round, and ran up to 1.4x above the
// 90th percentile. A faster program still shortens every round.
double roundWall(const std::vector<double>& v) { return quantile(v, 0.9); }

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string jsonString(const std::string& s) {
  std::string o = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += ch;
  }
  return o + "\"";
}

std::string recordJson(const SimRecord& r) {
  std::string o = "{";
  for (std::size_t i = 0; i < r.size(); ++i) {
    o += (i ? ", " : "") + jsonString(r[i].first) + ": " + num(r[i].second);
  }
  return o + "}";
}

double peakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---------------------------------------------------------------- main loop

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <paper_sci|hotspot_flit|commercial_trace> "
               "--seed <n> --seconds <s> --trace <0|1> --out <dir>\n";
  std::exit(2);
}

std::uint64_t parseUnsigned(const std::string& flag, const std::string& v) {
  std::uint64_t x = 0;
  const auto r = std::from_chars(v.data(), v.data() + v.size(), x);
  if (v.empty() || r.ec != std::errc() || r.ptr != v.data() + v.size()) {
    usage(flag + " wants a non-negative integer, got '" + v + "'");
  }
  return x;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parseUnsigned(flag, v);
      haveSeed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parseUnsigned(flag, v);
      if (s == 0 || s > 3600) usage("--seconds must be in 1..3600");
      a.seconds = static_cast<double>(s);
      haveSeconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
      haveTrace = true;
    } else if (flag == "--out") {
      a.out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !haveSeed || !haveSeconds || !haveTrace || a.out.empty()) {
    usage("--workload, --seed, --seconds, --trace and --out are all required");
  }
  return a;
}

struct Round {
  bool traced = false;
  double wall = 0.0;   ///< summed body seconds of every cell
  double setup = 0.0;  ///< summed set-up seconds of every cell
  std::map<std::string, double> selfSeconds;
};

class Bench {
 public:
  Bench(WorkloadDef def, bool traceMode)
      : def_(std::move(def)), traceMode_(traceMode), rec_(Clock::now()),
        reference_(def_.cells.size()) {}

  /// One cell, untimed, so the first timed round does not pay for the
  /// process's cold allocator, page tables and instruction caches.
  void warmUp() { account(0, runCell(def_.cells[0], rec_, false), "warm-up"); }

  void runRounds(double seconds) {
    const auto start = Clock::now();
    // Traced runs alternate untraced and traced rounds so slow phases of the
    // host hit both kinds alike; at least two of each.
    const std::size_t minRounds = traceMode_ ? 4 : 3;
    while (rounds_.size() < minRounds || secondsBetween(start, Clock::now()) < seconds) {
      Round r;
      r.traced = traceMode_ && rounds_.size() % 2 == 1;
      rec_.setKeep(r.traced);
      refsPerRound_ = 0.0;
      counts_.clear();
      {
        Scope s(rec_, "bench.round");
        for (std::size_t i = 0; i < def_.cells.size(); ++i) {
          rec_.setCell(static_cast<std::int32_t>(i));
          CellOutcome o = runCell(def_.cells[i], rec_, false);
          r.wall += o.bodySeconds;
          r.setup += o.setupSeconds;
          refsPerRound_ += o.refs;
          for (const auto& [k, v] : o.counts) counts_[k] += v;
          account(i, std::move(o), "round " + std::to_string(rounds_.size()));
        }
      }
      rec_.setCell(-1);
      r.selfSeconds = rec_.takeRound();
      rounds_.push_back(std::move(r));
    }
    rec_.setKeep(false);
  }

  /// Execution-driven cells once more with transaction tracing on, for the
  /// simulated read-latency stage split. Untimed; its simulated record must
  /// match the untraced rounds'.
  void runTxnTracePass() {
    for (std::size_t i = 0; i < def_.cells.size(); ++i) {
      if (def_.cells[i].traceDriven) continue;
      CellOutcome o = runCell(def_.cells[i], rec_, true);
      for (const auto& [k, v] : o.counts) {
        if (k.rfind("sim.read_stage.", 0) == 0) stages_[k] += v;
      }
      account(i, std::move(o), "txn-trace pass");
    }
    rec_.takeRound();
  }

  [[nodiscard]] bool ok() const { return failed_ == 0 && mismatches_.empty(); }

  void report(const Args& args) {
    std::vector<double> walls;
    std::vector<double> setups;
    std::vector<double> tracedWalls;
    for (const Round& r : rounds_) {
      (r.traced ? tracedWalls : walls).push_back(r.wall);
      setups.push_back(r.setup);
    }
    const double wall = roundWall(walls);

    std::cout << "workload " << def_.name << ", seed " << args.seed << " (" << def_.inputs
              << "), " << def_.cells.size() << " cells per round, " << refsPerRound_
              << " simulated references per round\n"
              << "simulated caches start empty in every cell; model unvalidated "
                 "(no reference results, no error figure)\n";
    printSample("wall_s (timed body per round)", walls);
    printSample("setup_s (set-up per round)", setups);
    if (traceMode_) printSample("traced wall_s per round", tracedWalls);
    std::cout << "simulated record per cell (must repeat exactly in every round):\n";
    for (std::size_t i = 0; i < def_.cells.size(); ++i) {
      std::cout << "  " << def_.cells[i].label << " " << recordJson(reference_[i]) << "\n";
    }
    for (const auto& [kernel, pct] : fig8Reductions()) {
      std::cout << "  " << kernel << ": switch directories cut home c2c transfers by "
                << num(pct) << "% against Base (paper Figure 8)\n";
    }
    for (const std::string& e : errors_) std::cout << "FAILED " << e << "\n";
    for (const std::string& e : mismatches_) std::cout << "NONDETERMINISTIC " << e << "\n";

    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    if (!traceMode_) {
      metrics = {{"sim_refs_per_s", {wall > 0 ? refsPerRound_ / wall : 0.0, "refs/s"}},
                 {"wall_s", {wall, "s"}},
                 {"setup_s", {median(setups), "s"}},
                 {"peak_rss_mb", {peakRssMiB(), "MiB"}}};
    } else {
      metrics = perLayerMetrics(wall, roundWall(tracedWalls));
      printSelfTimes();
    }
    writeDetail(args, walls, setups, tracedWalls, metrics);

    std::string line = "{\"correct\": " + std::string(ok() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      line += (i ? ", " : "") + jsonString(metrics[i].first) +
              ": {\"value\": " + num(metrics[i].second.first) +
              ", \"unit\": " + jsonString(metrics[i].second.second) + "}";
    }
    std::cout << line << "}}" << std::endl;
  }

 private:
  void account(std::size_t cell, CellOutcome o, const std::string& when) {
    ++attempted_;
    const std::string& label = def_.cells[cell].label;
    if (!o.errors.empty()) {
      ++failed_;
      for (const std::string& e : o.errors) errors_.push_back(label + " (" + when + "): " + e);
      return;
    }
    if (reference_[cell].empty()) {
      reference_[cell] = std::move(o.record);
    } else if (o.record != reference_[cell]) {
      mismatches_.push_back(label + " (" + when + "): " + recordJson(o.record) + " differs from " +
                            recordJson(reference_[cell]));
    }
  }

  static void printSample(const std::string& what, const std::vector<double>& v) {
    std::cout << what << ": median " << num(median(v)) << " s, quartiles " << num(quantile(v, 0.25))
              << " .. " << num(quantile(v, 0.75)) << " s, min " << num(quantile(v, 0.0))
              << " s, max " << num(quantile(v, 1.0)) << " s, " << v.size() << " samples\n";
  }

  /// Per-kernel reduction of home-forwarded c2c transfers, Base -> sd1024.
  [[nodiscard]] std::vector<std::pair<std::string, double>> fig8Reductions() const {
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i + 1 < def_.cells.size(); ++i) {
      const CellSpec& base = def_.cells[i];
      const CellSpec& sd = def_.cells[i + 1];
      if (base.traceDriven || base.workload != sd.workload || base.sys.switchDir.enabled() ||
          !sd.sys.switchDir.enabled()) {
        continue;
      }
      out.emplace_back(base.workload, reductionPct(field(i, "home_ctoc"), field(i + 1, "home_ctoc")));
    }
    return out;
  }

  [[nodiscard]] double field(std::size_t cell, const std::string& key) const {
    for (const auto& [k, v] : reference_[cell]) {
      if (k == key) return v;
    }
    return 0.0;
  }

  /// Median self seconds of one span name over the traced rounds.
  [[nodiscard]] double tracedSelf(const std::string& span) const {
    std::vector<double> v;
    for (const Round& r : rounds_) {
      if (!r.traced) continue;
      const auto it = r.selfSeconds.find(span);
      v.push_back(it == r.selfSeconds.end() ? 0.0 : it->second);
    }
    return median(v);
  }

  [[nodiscard]] double count(const std::string& k) const {
    const auto it = counts_.find(k);
    return it == counts_.end() ? 0.0 : it->second;
  }

  static double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

  std::vector<std::pair<std::string, std::pair<double, std::string>>> perLayerMetrics(
      double untracedWall, double tracedWall) const {
    std::vector<std::pair<std::string, std::pair<double, std::string>>> m;
    for (const char* span : {"sim.build", "workloads.setup", "sim.run", "workloads.verify",
                             "sim.check", "sim.collect", "sim.teardown", "trace.gen",
                             "traffic.gen", "trace.access", "traffic.stats", "bench.cell"}) {
      m.push_back({std::string(span) + "_s", {tracedSelf(span), "s"}});
    }
    const double runS = tracedSelf("sim.run");
    const double events = count("common.events");
    m.push_back({"common.events", {events, "count"}});
    m.push_back({"common.events_per_ref", {ratio(events, count("exec.refs")), "events/ref"}});
    m.push_back({"common.host_ns_per_event", {1e9 * ratio(runS, events), "ns"}});
    for (const char* k : {"reads", "l1_hits", "l2_hits", "read_misses", "mshr_full_stalls",
                          "retries", "backoff_cycles", "home_ctoc"}) {
      const std::string key = std::string("coherence.") + k;
      m.push_back({key, {count(key), std::string(k) == "backoff_cycles" ? "cycles" : "count"}});
    }
    for (const char* k : {"messages", "sunk", "link_busy_cycles", "flits", "flit_grants",
                          "credit_stall_cycles"}) {
      const std::string key = std::string("interconnect.") + k;
      const bool cycles = std::string(k).find("cycles") != std::string::npos;
      m.push_back({key, {count(key), cycles ? "cycles" : "count"}});
    }
    m.push_back({"interconnect.host_ns_per_flit",
                 {1e9 * ratio(runS, count("interconnect.flits")), "ns"}});
    for (const char* k : {"deposits", "ctoc_initiated", "retries"}) {
      const std::string key = std::string("switchdir.") + k;
      m.push_back({key, {count(key), "count"}});
    }
    const double sw = count("switchdir.switch_ctoc");
    m.push_back({"switchdir.ctoc_share", {ratio(sw, sw + count("switchdir.home_ctoc")), "ratio"}});
    for (const char* k : {"refs", "read_misses", "svc_switch_dir", "sd_stale_retries"}) {
      const std::string key = std::string("trace.") + k;
      m.push_back({key, {count(key), "count"}});
    }
    m.push_back({"trace.host_ns_per_access",
                 {1e9 * ratio(tracedSelf("trace.access"), count("trace.refs")), "ns"}});
    m.push_back({"sim.exec_cycles", {count("sim.exec_cycles"), "cycles"}});
    for (std::size_t i = 0; i < kTxnStageCount; ++i) {
      const std::string key =
          std::string("sim.read_stage.") + toString(static_cast<TxnStage>(i));
      const auto it = stages_.find(key);
      m.push_back({key, {it == stages_.end() ? 0.0 : it->second, "cycles"}});
    }
    m.push_back({"bench.untraced_wall_s", {untracedWall, "s"}});
    m.push_back({"bench.traced_wall_s", {tracedWall, "s"}});
    m.push_back({"bench.trace_overhead_s", {tracedWall - untracedWall, "s"}});
    return m;
  }

  void printSelfTimes() const {
    std::cout << "span self time, median per traced round:\n";
    std::map<std::string, bool> names;
    for (const Round& r : rounds_) {
      for (const auto& [k, v] : r.selfSeconds) names[k] = true;
    }
    for (const auto& [name, unused] : names) {
      std::cout << "  " << name << " " << num(tracedSelf(name)) << " s\n";
    }
  }

  void writeDetail(const Args& args, const std::vector<double>& walls,
                   const std::vector<double>& setups, const std::vector<double>& tracedWalls,
                   const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
                       metrics) const {
    std::filesystem::create_directories(args.out);
    const std::string stem = args.out + "/" + def_.name + "-seed" + std::to_string(args.seed) +
                             (traceMode_ ? "-trace" : "");
    auto list = [](const std::vector<double>& v) {
      std::string o = "[";
      for (std::size_t i = 0; i < v.size(); ++i) o += (i ? ", " : "") + num(v[i]);
      return o + "]";
    };
    std::ofstream os(stem + ".json");
    os << "{\"workload\": " << jsonString(def_.name) << ", \"seed\": " << args.seed
       << ", \"inputs\": " << jsonString(def_.inputs) << ",\n \"round_wall_s\": " << list(walls)
       << ",\n \"round_setup_s\": " << list(setups)
       << ",\n \"traced_round_wall_s\": " << list(tracedWalls) << ",\n \"cells\": [";
    for (std::size_t i = 0; i < def_.cells.size(); ++i) {
      os << (i ? ",\n  " : "\n  ") << "{\"label\": " << jsonString(def_.cells[i].label)
         << ", \"simulated\": " << recordJson(reference_[i]) << "}";
    }
    os << "],\n \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      os << (i ? ", " : "") << jsonString(metrics[i].first) << ": " << num(metrics[i].second.first);
    }
    os << "}}\n";
    if (traceMode_) {
      std::ofstream ts(stem + ".spans.json");
      rec_.writeChromeTrace(ts);
    }
  }

  WorkloadDef def_;
  bool traceMode_;
  SpanRecorder rec_;
  std::vector<SimRecord> reference_;  ///< first successful record per cell
  std::vector<Round> rounds_;
  std::map<std::string, double> counts_;  ///< per-layer counts of the last round
  std::map<std::string, double> stages_;  ///< txn-trace pass read stages
  double refsPerRound_ = 0.0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<std::string> mismatches_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parseArgs(argc, argv);
  WorkloadDef def;
  try {
    def = makeWorkloadDef(args.workload, args.seed);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  Bench bench(std::move(def), args.trace);
  bench.warmUp();
  bench.runRounds(args.seconds);
  if (args.trace) bench.runTxnTracePass();
  bench.report(args);
  return bench.ok() ? 0 : 1;
}

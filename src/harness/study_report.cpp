#include "harness/study_report.h"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

#include "sim/metrics.h"
#include "trace/tpc_gen.h"

namespace dresar::harness {

namespace {

/// One report being rendered: a cell lookup plus the text it prints. A dry
/// run over the expanded job list (results with empty records) records every
/// cell the report would read that the spec does not list.
class View {
 public:
  View(const SweepSpec& spec, const std::vector<JobResult>& results) : spec_(spec) {
    for (const JobResult& r : results) {
      if (r.job.seed != 1) continue;
      rows_.push_back(&r);
      cells_.emplace(keyOf(r.job), &r);
    }
  }

  const SweepSpec& spec() const { return spec_; }

  /// Replica-1 results in expansion order.
  const std::vector<const JobResult*>& rows() const { return rows_; }

  /// The result of the cell `probe` names: its workload and config tag.
  const JobResult& at(const JobSpec& probe) {
    const auto it = cells_.find(keyOf(probe));
    if (it != cells_.end()) return *it->second;
    missing_.insert("workload " + probe.app + ", config " + probe.configTag());
    static const JobResult kNone;
    return kNone;
  }

  /// The spec's workloads that `keep` accepts, in spec order; the report
  /// needs at least one.
  std::vector<std::string> workloads(bool (*keep)(const std::string&), const char* what) {
    std::vector<std::string> out;
    std::copy_if(spec_.workloads.begin(), spec_.workloads.end(), std::back_inserter(out), keep);
    need(!out.empty(), std::string("at least one ") + what + " workload");
    return out;
  }

  void need(bool ok, const std::string& what) {
    if (!ok) missing_.insert(what);
  }

  __attribute__((format(printf, 2, 3))) void print(const char* fmt, ...) {
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out << std::string(buf, static_cast<std::size_t>(std::clamp(n, 0, int{sizeof buf} - 1)));
  }

  const std::set<std::string>& missing() const { return missing_; }

  std::ostringstream out;  ///< the report's text

 private:
  static std::string keyOf(const JobSpec& j) { return j.app + " " + j.configTag(); }

  const SweepSpec& spec_;
  std::vector<const JobResult*> rows_;
  std::map<std::string, const JobResult*> cells_;
  std::set<std::string> missing_;
};

JobSpec probe(const std::string& app, std::uint32_t sdEntries) {
  JobSpec j;
  j.app = app;
  j.sdEntries = sdEntries;
  return j;
}

using ull = unsigned long long;

constexpr std::uint32_t kRefEntries = 1024;  ///< the paper's reference directory size

/// The paper's applications in its figure order; the reference columns of
/// Figures 1 and 8-11 follow the same order.
constexpr std::array<std::string_view, 7> kPaperApps = {"fft", "tc",   "sor", "fwa",
                                                        "gauss", "tpcc", "tpcd"};
constexpr const char* kPaperAppList = "paper (fft, tc, sor, fwa, gauss, tpcc, tpcd)";

std::size_t paperIndex(const std::string& w) {
  return static_cast<std::size_t>(std::find(kPaperApps.begin(), kPaperApps.end(), w) -
                                  kPaperApps.begin());
}

bool paperApp(const std::string& w) { return paperIndex(w) < kPaperApps.size(); }

bool executionDriven(const std::string& w) { return workloadKind(w) == JobKind::Scientific; }

bool traceKind(const JobResult& r) { return r.job.kind != JobKind::Scientific; }

/// Metric `name` of the cell's run record; 0 for a dry-run cell.
double num(const JobResult& r, std::string_view name) { return r.record.value(name); }

ull count(const JobResult& r, std::string_view name) { return static_cast<ull>(num(r, name)); }

/// Read misses serviced cache-to-cache, by the home or in the network.
double c2c(const JobResult& r) {
  return traceKind(r) ? num(r, "svc_ctoc_local") + num(r, "svc_ctoc_remote") +
                            num(r, "svc_switch_dir")
                      : num(r, "svc_ctoc_home") + num(r, "svc_ctoc_switch") +
                            num(r, "svc_switch_wb");
}

/// Read misses a switch directory serviced.
ull switchServed(const JobResult& r) {
  return static_cast<ull>(traceKind(r) ? num(r, "svc_switch_dir")
                                       : num(r, "svc_ctoc_switch") + num(r, "svc_switch_wb"));
}

// ------------------------------------------------------------- figures --

void fig1(View& v) {
  static const char* const kPaper[] = {"~65", "~25", "~62", "~15-30", "~15-30", "~38", "~62"};
  v.print("Figure 1: Fraction of Clean vs. Dirty (CtoC) Memory Reads\n");
  v.print("  %-8s %10s %8s %8s %14s   %s\n", "app", "misses", "clean%", "dirty%", "dirtyLat%",
          "paper dirty%");
  for (const std::string& w : v.workloads(paperApp, kPaperAppList)) {
    const JobResult& r = v.at(probe(w, 0));
    const double misses = num(r, "read_misses");
    const double dirty = c2c(r);
    double clean = 0, dirtyLatShare = 0;
    if (traceKind(r)) {
      clean = misses - dirty;
      // Latency share over miss-service latency, from the Table 3 costs.
      const TraceConfig t3 = TraceConfig::paperTable3();
      const double dirtyLat = num(r, "svc_ctoc_local") * t3.ctocLocalHome +
                              num(r, "svc_ctoc_remote") * t3.ctocRemoteHome;
      const double cleanLat = num(r, "svc_clean_local") * t3.localMemory +
                              num(r, "svc_clean_remote") * t3.remoteMemory;
      dirtyLatShare = (dirtyLat + cleanLat) > 0 ? dirtyLat / (dirtyLat + cleanLat) : 0;
    } else {
      clean = num(r, "svc_clean");
      const double missLat = num(r, "total_read_lat_ctoc") + num(r, "total_read_lat_clean_miss");
      dirtyLatShare = missLat > 0 ? num(r, "total_read_lat_ctoc") / missLat : 0;
    }
    v.print("  %-8s %10.0f %7.1f%% %7.1f%% %13.1f%%   %s\n", r.job.displayApp().c_str(), misses,
            misses ? 100.0 * clean / misses : 0.0, misses ? 100.0 * dirty / misses : 0.0,
            100.0 * dirtyLatShare, kPaper[paperIndex(w)]);
  }
  v.print("\nSection 2 claim: the dirty latency share exceeds the dirty miss share\n"
          "(paper: FFT 65%% misses -> 74%% latency; TPC-C 38%% -> 49%%).\n");
}

/// Figures 8-11: one quantity per app and switch-directory size, as a
/// reduction against the Base system, with the paper's best reduction. The
/// quantity is one record metric, named per run kind.
struct ReductionFigure {
  const char* title;
  const char* quantity;
  const char* sciMetric;
  const char* traceMetric;
  std::array<double, kPaperApps.size()> paperPct;
};

void reductionTable(View& v, const ReductionFigure& f) {
  std::vector<std::uint32_t> sizes;
  for (const std::uint32_t e : v.spec().entries) {
    if (e != 0) sizes.push_back(e);
  }
  v.need(!sizes.empty(), "at least one non-zero entries value");
  const auto value = [&f](const JobResult& r) {
    return num(r, traceKind(r) ? f.traceMetric : f.sciMetric);
  };
  v.print("%s\n", f.title);
  v.print("  normalized reduction in %s vs Base (%%); higher is better\n", f.quantity);
  v.print("  %-8s", "app");
  for (const auto e : sizes) v.print(" %8u", e);
  v.print("   paper(best)\n");
  for (const std::string& w : v.workloads(paperApp, kPaperAppList)) {
    const JobResult& base = v.at(probe(w, 0));
    v.print("  %-8s", base.job.displayApp().c_str());
    for (const auto e : sizes) {
      v.print(" %7.1f%%", reductionPct(value(base), value(v.at(probe(w, e)))));
    }
    v.print("   ~%.0f%%\n", f.paperPct[paperIndex(w)]);
  }
}

const ReductionFigure kFig8{"Figure 8: Reduction in Home Node CtoC Transfers",
                            "home-node c2c forwards", "home_ctoc", "home_ctoc",
                            {66, 68, 42, 45, 52, 51, 17}};
const ReductionFigure kFig9{"Figure 9: Reduction in the Average Read Latency",
                            "average read latency", "avg_read_latency", "avg_read_latency",
                            {23, 15, 20, 8, 12, 10, 5}};
const ReductionFigure kFig10{"Figure 10: Reduction in the Read Stall Time",
                             "total read stall cycles", "total_read_stall", "total_read_latency",
                             {25, 15, 22, 8, 12, 10, 5}};
const ReductionFigure kFig11{"Figure 11: Execution Time Reduction", "execution time",
                             "exec_time", "exec_time", {4, 4, 9, 1, 1, 4, 2}};

// -------------------------------------------------------------- tables --

void table1(View& v) {
  struct Row {
    MsgType t;
    const char* desc;
  };
  static const Row kRows[] = {
      {MsgType::ReadRequest, "loads resulting in misses to remote memory"},
      {MsgType::WriteRequest, "stores resulting in misses to remote memory"},
      {MsgType::WriteReply, "ownership reply for servicing write requests"},
      {MsgType::CtoCRequest, "request forwarded to the cache when block is private"},
      {MsgType::CopyBack, "data sent to the home node after a c2c transfer"},
      {MsgType::WriteBack, "data sent from cache to memory on dirty replacement"},
      {MsgType::Retry, "reply sent to initiate a retry for the request"},
      {MsgType::ReadReply, "clean data reply from the home (protocol completion)"},
      {MsgType::CtoCReply, "data from owner cache to requester (protocol completion)"},
      {MsgType::Invalidation, "home -> sharer/owner invalidation (protocol completion)"},
      {MsgType::InvalAck, "sharer -> home acknowledgment (protocol completion)"},
  };
  const JobResult& sor = v.at(probe("sor", kRefEntries));
  v.print("Table 1: Messages Relevant to the Switch Directory (SOR reference run)\n");
  v.print("  %-14s %10s  %s\n", "message", "count", "description");
  for (const Row& r : kRows) {
    v.print("  %-14s %10llu  %s\n", toString(r.t),
            count(sor, std::string("msgs_") + toString(r.t)), r.desc);
  }
}

void table2(View& v) {
  const WorkloadScale paper = WorkloadScale::paper();
  const WorkloadScale run = v.spec().workloadScale();
  v.out << "Table 2: Execution-Driven Simulation Parameters\n";
  SystemConfig::paperTable2().dump(v.out);
  v.out << "Application workload (paper sizes / this run):\n"
        << "  FFT   " << paper.fftPoints << " pts   / " << run.fftPoints << " pts\n"
        << "  SOR   " << paper.sorN << "x" << paper.sorN << "     / " << run.sorN << "x"
        << run.sorN << "\n"
        << "  TC    " << paper.tcN << "x" << paper.tcN << "     / " << run.tcN << "x" << run.tcN
        << "\n"
        << "  FWA   " << paper.fwaN << "x" << paper.fwaN << "     / " << run.fwaN << "x"
        << run.fwaN << "\n"
        << "  GE    " << paper.gaussN << "x" << paper.gaussN << "     / " << run.gaussN << "x"
        << run.gaussN << "\n"
        << "Switch directories: 256-2048 entries, 4-way (swept by fig8..fig11)\n";
}

void table3(View& v) {
  const std::uint64_t refs = v.spec().traceRefs;
  v.out << "Table 3: Trace-Driven Simulation Parameters\n";
  TraceConfig::paperTable3().dump(v.out);
  v.out << "Trace content: " << refs << " memory references per workload\n"
        << "  (paper: 16M references from DB2/1GB COMPASS traces; here synthetic\n"
        << "   generators calibrated to the paper's published sharing statistics,\n"
        << "   see DESIGN.md substitution #2 and tests/trace_gen_test.cpp)\n";
  for (const bool d : {false, true}) {
    const TpcParams p = d ? TpcParams::tpcd(refs) : TpcParams::tpcc(refs);
    v.out << "  " << p.name << ": private " << p.privatePerProc << " blocks/proc, hot "
          << p.hotBlocks << " (zipf " << p.zipfHot << "), warm " << p.warmBlocks << ", pHot "
          << p.pHot << ", pWarm " << p.pWarm << "\n";
  }
}

// ------------------------------------------------------------- studies --

void scaling(View& v) {
  const std::vector<std::string> apps = v.workloads(executionDriven, "execution-driven");
  const auto cell = [&v](const std::string& w, std::uint32_t nodes,
                         std::uint32_t entries) -> const JobResult& {
    JobSpec j = probe(w, entries);
    j.numNodes = nodes;
    return v.at(j);
  };
  const auto c2cLat = [](const JobResult& r) {
    return c2c(r) == 0 ? 0.0 : num(r, "total_read_lat_ctoc") / c2c(r);
  };
  const auto table = [&](double (*metric)(const JobResult&)) {
    for (const std::string& w : apps) {
      v.print("  %-8s", w.c_str());
      for (const std::uint32_t n : v.spec().nodes) {
        v.print(" %10.1f%%", reductionPct(metric(cell(w, n, 0)), metric(cell(w, n, kRefEntries))));
      }
      v.print("\n");
    }
  };
  v.print("Scaling: C2C Read-Latency Reduction vs. System Size (Base -> sd-%u)\n", kRefEntries);
  v.print("  %-8s", "app");
  for (const std::uint32_t n : v.spec().nodes) v.print(" %11s", ("n=" + std::to_string(n)).c_str());
  v.print("\n");
  table(+c2cLat);
  v.print("\n  overall average read latency, same runs:\n");
  table([](const JobResult& r) { return num(r, "avg_read_latency"); });
}

void traffic(View& v) {
  v.print("Multi-tenant traffic: read-latency tail and controller occupancy\n");
  v.print("  %-6s %-14s %8s %8s %8s %10s %10s %8s\n", "app", "config", "tenants", "p99", "p99.9",
          "burst-occ", "steady-occ", "c2c");
  bool any = false;
  for (const JobResult* res : v.rows()) {
    if (res->job.kind != JobKind::Traffic) continue;
    any = true;
    const JsonValue* t = res->record.block("traffic");
    if (t == nullptr) continue;  // missingReportCells() renders records-free cells
    const auto num = [t](const char* k) { return t->at(k).asNumber(); };
    const auto clamped = [t](const char* k) { return t->at(k).asBool() ? "+" : " "; };
    v.print("  %-6s %-14s %8llu %7.0f%s %7.0f%s %10.3f %10.3f %8llu\n",
            res->job.displayApp().c_str(), res->job.configTag().c_str(),
            static_cast<ull>(num("tenants")), num("p99_read_latency"), clamped("p99_overflowed"),
            num("p999_read_latency"), clamped("p999_overflowed"), num("burst_occupancy"),
            num("steady_occupancy"), static_cast<ull>(c2c(*res)));
  }
  v.need(any, "at least one traffic workload (oltp, kv)");
  v.print("  (+ = percentile clamped at the histogram overflow bound;"
          " occ > 1 = offered load outran the controllers)\n");
}

void assoc(View& v) {
  const std::vector<std::string> apps = v.workloads(paperApp, kPaperAppList);
  v.print("Ablation: switch-directory associativity (%u entries)\n", kRefEntries);
  v.print("  %-8s %6s %18s %18s\n", "app", "assoc", "homeCtoC reduction", "sd hits");
  for (const std::uint32_t a : v.spec().assoc) {
    for (const std::string& w : apps) {
      const JobResult& base = v.at(probe(w, 0));
      JobSpec j = probe(w, kRefEntries);
      j.assoc = a;
      const JobResult& sd = v.at(j);
      v.print("  %-8s %6u %17.1f%% %18llu\n", base.job.displayApp().c_str(), a,
              reductionPct(num(base, "home_ctoc"), num(sd, "home_ctoc")), switchServed(sd));
    }
  }
}

void pendingBuffer(View& v) {
  v.print("Ablation: pending buffer (paper 4.3) on the 8x8 switch directory\n");
  v.print("  %-8s %-10s %12s %14s %12s\n", "app", "pending", "exec", "avgReadLat", "homeCtoC");
  for (const std::string& w : v.workloads(executionDriven, "execution-driven")) {
    for (const std::uint32_t pb : v.spec().pendingBuffer) {
      JobSpec j = probe(w, kRefEntries);
      j.pendingBuffer = pb;
      const JobResult& r = v.at(j);
      v.print("  %-8s %-10s %12llu %14.2f %12llu\n", w.c_str(),
              pb == 0 ? "off" : std::to_string(pb).c_str(), count(r, "exec_time"),
              num(r, "avg_read_latency"), count(r, "home_ctoc"));
    }
  }
  v.print("\n(The paper argues a 4-way pending buffer + 2-way main directory is\n"
          " more cost-effective than a true 4-way multiported directory.)\n");
}

void snoopInval(View& v) {
  v.print("Ablation: invalidation snooping in switch directories (our extension)\n");
  v.print("  %-8s %-10s %12s %10s %14s\n", "app", "snoop", "exec", "retries", "sd c2c");
  for (const std::string& w : v.workloads(executionDriven, "execution-driven")) {
    for (const std::uint32_t snoop : v.spec().snoopInval) {
      JobSpec j = probe(w, kRefEntries);
      j.snoopInval = snoop != 0;
      const JobResult& r = v.at(j);
      v.print("  %-8s %-10s %12llu %10llu %14llu\n", w.c_str(), snoop != 0 ? "on" : "off",
              count(r, "exec_time"), count(r, "retries"), switchServed(r));
    }
  }
}

void switchCache(View& v) {
  v.print("Extension: switch directory + switch cache (paper conclusion)\n");
  v.print("  %-7s %-14s %12s %10s %12s %12s %10s\n", "app", "config", "exec", "readLat",
          "c2c@switch", "clean@switch", "homeCtoC");
  for (const std::string& w : v.workloads(executionDriven, "execution-driven")) {
    for (const std::uint32_t cache : v.spec().switchCache) {
      for (const std::uint32_t dir : v.spec().entries) {
        JobSpec j = probe(w, dir);
        j.switchCacheEntries = cache;
        const JobResult& r = v.at(j);
        v.print("  %-7s %-14s %12llu %10.2f %12llu %12llu %10llu\n", w.c_str(),
                j.configTag().c_str(), count(r, "exec_time"), num(r, "avg_read_latency"),
                switchServed(r), count(r, "svc_switch_cache"), count(r, "home_ctoc"));
      }
    }
  }
}

void network(View& v) {
  for (const std::string& w : v.workloads(executionDriven, "execution-driven")) {
    const auto exec = [&](std::uint32_t entries, std::uint32_t core, std::uint32_t link) {
      JobSpec j = probe(w, entries);
      j.coreDelay = core;
      j.linkCycles = link;
      return num(v.at(j), "exec_time");
    };
    v.print("Ablation: network timing sensitivity (%s)\n", probe(w, 0).displayApp().c_str());
    v.print("  %-10s %-10s %12s %12s %14s\n", "coreDelay", "link c/f", "exec(base)",
            "exec(sd1K)", "sd benefit");
    for (const std::uint32_t core : v.spec().coreDelay) {
      for (const std::uint32_t link : v.spec().linkCycles) {
        const double base = exec(0, core, link);
        const double sd = exec(kRefEntries, core, link);
        v.print("  %-10u %-10u %12llu %12llu %13.1f%%\n", core, link, static_cast<ull>(base),
                static_cast<ull>(sd), reductionPct(base, sd));
      }
    }
  }
  v.print("\n(Buffer depth is a non-factor at message level — the paper's point:\n"
          " that SRAM is better spent on the switch directory itself.)\n");
}

void validation(View& v) {
  v.print("Validation: flit-level wormhole vs message-level timing\n");
  v.print("  %-7s %-6s | %12s %12s %7s | %10s %10s | %12s\n", "app", "sd", "exec(msg)",
          "exec(flit)", "ratio", "lat(msg)", "lat(flit)", "sdC2C m/f");
  for (const std::string& w : v.workloads(executionDriven, "execution-driven")) {
    for (const std::uint32_t sd : v.spec().entries) {
      JobSpec j = probe(w, sd);
      const JobResult& msg = v.at(j);
      j.flitLevel = true;
      const JobResult& flit = v.at(j);
      v.print("  %-7s %-6u | %12llu %12llu %7.2f | %10.2f %10.2f | %5llu/%llu\n", w.c_str(), sd,
              count(msg, "exec_time"), count(flit, "exec_time"),
              num(flit, "exec_time") / num(msg, "exec_time"), num(msg, "avg_read_latency"),
              num(flit, "avg_read_latency"), switchServed(msg), switchServed(flit));
    }
  }
}

void flitBuffers(View& v) {
  for (const std::string& w : v.workloads(executionDriven, "execution-driven")) {
    v.print("Buffer-depth sensitivity under the flit model (paper Section 1 claim):\n");
    v.print("  %-12s %12s\n", "bufferFlits", ("exec (" + probe(w, 0).displayApp() + ")").c_str());
    for (const std::uint32_t buf : v.spec().bufferFlits) {
      JobSpec j = probe(w, 0);
      j.flitLevel = true;
      j.bufferFlits = buf;
      v.print("  %-12u %12llu\n", buf, count(v.at(j), "exec_time"));
    }
  }
  v.print("(beyond a few flits of buffering, performance is flat — the SRAM is\n"
          " better spent on switch directories, which is the paper's premise)\n");
}

struct Report {
  const char* name;
  void (*render)(View&);
  bool configOnly = false;
};

constexpr Report kReports[] = {
    {"fig1", fig1},
    {"fig8", [](View& v) { reductionTable(v, kFig8); }},
    {"fig9", [](View& v) { reductionTable(v, kFig9); }},
    {"fig10", [](View& v) { reductionTable(v, kFig10); }},
    {"fig11", [](View& v) { reductionTable(v, kFig11); }},
    {"table1", table1},
    {"table2", table2, true},
    {"table3", table3, true},
    {"scaling", scaling},
    {"traffic", traffic},
    {"assoc", assoc},
    {"pending_buffer", pendingBuffer},
    {"snoop_inval", snoopInval},
    {"switch_cache", switchCache},
    {"network", network},
    {"validation", validation},
    {"flit_buffers", flitBuffers},
};

const Report* find(const std::string& name) {
  for (const Report& r : kReports) {
    if (name == r.name) return &r;
  }
  return nullptr;
}

}  // namespace

const char* reportNameList() {
  static const std::string list = [] {
    std::string s;
    for (const Report& r : kReports) s += (s.empty() ? "" : ", ") + std::string(r.name);
    return s;
  }();
  return list.c_str();
}

bool isReport(const std::string& name) { return find(name) != nullptr; }

bool isConfigOnlyReport(const std::string& name) {
  const Report* r = find(name);
  return r != nullptr && r->configOnly;
}

std::vector<std::string> missingReportCells(const std::vector<std::string>& names,
                                            const SweepSpec& spec,
                                            const std::vector<JobSpec>& jobs) {
  std::vector<JobResult> cells(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) cells[i].job = jobs[i];
  std::vector<std::string> errors;
  for (const std::string& name : names) {
    View v(spec, cells);
    find(name)->render(v);
    for (const std::string& m : v.missing()) {
      errors.push_back("report " + name + " needs " + m + ", which spec '" + spec.name +
                       "' does not list");
    }
  }
  return errors;
}

std::string renderReports(const std::vector<std::string>& names, const SweepSpec& spec,
                          const std::vector<JobResult>& results) {
  std::string text;
  for (const std::string& name : names) {
    View v(spec, results);
    find(name)->render(v);
    if (!text.empty()) text += '\n';
    text += v.out.str();
  }
  return text;
}

}  // namespace dresar::harness

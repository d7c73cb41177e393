// dresar-sweep — declarative parallel design-space sweeps.
//
//   dresar-sweep --spec=sweeps/paper_all.spec --jobs=8 --json=out.json
//   dresar-sweep --spec=sweeps/quick.spec --quick --deterministic --json=quick.json
//   dresar-sweep --spec=sweeps/fig8.spec --report=fig1,fig8,table1
//
// Expands the spec's job matrix (workload x every axis x seed replicas),
// runs every job on --jobs worker threads (each job is a fully
// isolated simulation), aggregates per-config statistics over seed replicas
// into one dresar-bench-results/v7 JSON document. --report renders the
// paper's figures and tables (and the ablation and validation tables) from
// the campaign's run records; see harness/study_report.h for which spec
// feeds which report.
//
// Campaign persistence: with --json=FILE every finished job is also appended
// to a JSONL job store (FILE.jobs by default, --store overrides), so
//   - a killed campaign re-run with --resume skips completed cells and
//     re-emits the canonical document byte-identically (--deterministic);
//   - --shard=I/N partitions the matrix across machines, and
//     --merge=A.jobs,B.jobs folds the shard stores back in like --resume
//     does, simulating only cells no store holds;
//   - a job that throws records an error entry, the campaign continues,
//     and the run exits non-zero after reporting every failure — sibling
//     results are written, not discarded.
//
// Drift against a committed document (BENCH_*.json) or another build's output
// is checked outside the binary, exactly, by .github/scripts/value_check.py
// (--ignore-wall-clock for documents written without --deterministic); a
// change that moves output re-commits the BENCH file.
//
// Exit codes: 0 ok, 1 I/O or simulation failure, 2 bad usage.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/aggregate.h"
#include "harness/campaign.h"
#include "harness/run_context.h"
#include "harness/study_report.h"
#include "harness/sweep_spec.h"

namespace {

using namespace dresar;
using namespace dresar::harness;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --spec=FILE [options]\n"
               "  --spec=FILE       sweep specification (see sweeps/*.spec)\n"
               "  --jobs=N          worker threads (default 1)\n"
               "  --json=FILE       write the aggregated v7 result document\n"
               "  --store=FILE      job store path (default: <json>.jobs)\n"
               "  --resume          fold completed jobs in from the store and\n"
               "                    simulate only what is missing\n"
               "  --shard=I/N       run only matrix slice I of N (0-based)\n"
               "  --merge=A,B,...   also fold completed jobs in from these\n"
               "                    stores (shard stores); simulate the rest\n"
               "  --quick           override problem sizes to CI-smoke scale\n"
               "  --paper           override problem sizes to the paper's Table 2\n"
               "  --seeds=N         override the spec's seed replica count\n"
               "  --deterministic   omit wall-clock fields from the JSON so the\n"
               "                    document is byte-identical for any --jobs=N\n"
               "  --list            print the expanded job matrix and exit\n"
               "  --report=A,B,...  after the runs, print these reports, out of\n"
               "                    %s\n"
               "  --trace=FILE      record every transaction of the execution-driven\n"
               "                    runs as Chrome trace_event JSON (open in Perfetto)\n",
               argv0, reportNameList());
}

/// Comma-separated list, empty pieces dropped.
std::vector<std::string> splitList(std::string rest) {
  std::vector<std::string> out;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string piece = rest.substr(0, comma);
    if (!piece.empty()) out.push_back(piece);
    if (comma == std::string::npos) break;
    rest.erase(0, comma + 1);
  }
  return out;
}

bool parseU64(const std::string& s, std::uint64_t& out, std::uint64_t max = UINT64_MAX) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 10);
  if (ec != std::errc() || ptr != s.data() + s.size() || v > max) return false;
  out = v;
  return true;
}

struct Cli {
  std::string specPath;
  std::string jsonPath;
  std::string storePath;
  std::vector<std::string> mergePaths;
  std::vector<std::string> reports;
  std::string tracePath;
  unsigned jobs = 1;
  std::uint64_t seedsOverride = 0;
  std::uint32_t shardIndex = 0;
  std::uint32_t shardCount = 1;
  bool resume = false;
  bool quick = false;
  bool paper = false;
  bool deterministic = false;
  bool list = false;
};

Cli parseCli(int argc, char** argv) {
  Cli c;
  const auto fail = [&](const char* why, const std::string& arg) {
    std::fprintf(stderr, "error: %s: %s\n", why, arg.c_str());
    usage(argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else if (a.rfind("--spec=", 0) == 0) {
      c.specPath = a.substr(7);
      if (c.specPath.empty()) fail("--spec expects a file path", a);
    } else if (a == "--spec" && i + 1 < argc) {
      c.specPath = argv[++i];
    } else if (a.rfind("--jobs=", 0) == 0) {
      std::uint64_t v = 0;
      if (!parseU64(a.substr(7), v, 1024) || v == 0) {
        fail("--jobs expects a positive integer", a);
      }
      c.jobs = static_cast<unsigned>(v);
    } else if (a.rfind("--json=", 0) == 0) {
      c.jsonPath = a.substr(7);
      if (c.jsonPath.empty()) fail("--json expects a file path", a);
    } else if (a.rfind("--store=", 0) == 0) {
      c.storePath = a.substr(8);
      if (c.storePath.empty()) fail("--store expects a file path", a);
    } else if (a == "--resume") {
      c.resume = true;
    } else if (a.rfind("--shard=", 0) == 0) {
      const std::string v = a.substr(8);
      const std::size_t slash = v.find('/');
      std::uint64_t idx = 0;
      std::uint64_t cnt = 0;
      if (slash == std::string::npos || !parseU64(v.substr(0, slash), idx, 1'000'000) ||
          !parseU64(v.substr(slash + 1), cnt, 1'000'000) || cnt == 0 || idx >= cnt) {
        fail("--shard expects I/N with 0 <= I < N", a);
      }
      c.shardIndex = static_cast<std::uint32_t>(idx);
      c.shardCount = static_cast<std::uint32_t>(cnt);
    } else if (a.rfind("--merge=", 0) == 0) {
      c.mergePaths = splitList(a.substr(8));
      if (c.mergePaths.empty()) fail("--merge expects a comma-separated store list", a);
    } else if (a.rfind("--report=", 0) == 0) {
      c.reports = splitList(a.substr(9));
      if (c.reports.empty()) fail("--report expects a comma-separated report list", a);
      for (const std::string& r : c.reports) {
        if (!isReport(r)) fail("unknown report (see --help for the names)", r);
      }
    } else if (a.rfind("--trace=", 0) == 0) {
      c.tracePath = a.substr(8);
      if (c.tracePath.empty()) fail("--trace expects a file path", a);
    } else if (a.rfind("--seeds=", 0) == 0) {
      if (!parseU64(a.substr(8), c.seedsOverride, 10'000) || c.seedsOverride == 0) {
        fail("--seeds expects a positive integer", a);
      }
    } else if (a == "--quick") {
      c.quick = true;
    } else if (a == "--paper") {
      c.paper = true;
    } else if (a == "--deterministic") {
      c.deterministic = true;
    } else if (a == "--list") {
      c.list = true;
    } else {
      fail("unknown option", a);
    }
  }
  if (c.specPath.empty()) fail("--spec is required", "(missing)");
  if (c.quick && c.paper) fail("--quick and --paper are mutually exclusive", "(conflict)");
  // A shard holds only part of the cells a report reads.
  if (!c.reports.empty() && c.shardCount != 1) {
    fail("--report cannot be combined with --shard", "(conflict)");
  }
  // Traces are recorded by the runs themselves; the store does not keep them.
  if (!c.tracePath.empty() && (c.resume || !c.mergePaths.empty() || c.shardCount != 1)) {
    fail("--trace cannot be combined with --resume, --merge or --shard", "(conflict)");
  }
  if (c.resume && c.jsonPath.empty() && c.storePath.empty()) {
    fail("--resume needs a job store (--json or --store)", "(missing)");
  }
  return c;
}

/// Create the parent directory of `path` up front so a campaign fails before
/// hours of simulation, not at the final write. Returns false after
/// reporting to stderr.
bool ensureParentDir(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create output directory '%s': %s\n",
                 parent.string().c_str(), ec.message().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parseCli(argc, argv);

  // Fail unwritable output locations now, before hours of simulation.
  if (!cli.jsonPath.empty() && !ensureParentDir(cli.jsonPath)) return 1;
  const std::string storePath =
      !cli.storePath.empty() ? cli.storePath
                             : (cli.jsonPath.empty() ? "" : cli.jsonPath + ".jobs");
  if (!storePath.empty() && !ensureParentDir(storePath)) return 1;

  SweepSpec spec;
  try {
    spec = SweepSpec::parseFile(cli.specPath);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (cli.quick) spec.overrideScale("tiny");
  if (cli.paper) spec.overrideScale("paper");
  if (cli.seedsOverride != 0) spec.seeds = cli.seedsOverride;

  std::vector<JobSpec> jobs = spec.expand();
  if (cli.list) {
    std::printf("sweep '%s': %zu job(s)\n", spec.name.c_str(), jobs.size());
    for (const JobSpec& j : jobs) {
      std::printf("  %-8s %-14s seed=%llu %s\n", j.displayApp().c_str(), j.configTag().c_str(),
                  static_cast<unsigned long long>(j.seed), kindName(j.kind));
    }
    return 0;
  }

  // A report whose cells the spec lacks fails now, not after the runs.
  const std::vector<std::string> missing = missingReportCells(cli.reports, spec, jobs);
  for (const std::string& m : missing) std::fprintf(stderr, "error: %s\n", m.c_str());
  if (!missing.empty()) return 2;
  if (!cli.reports.empty() &&
      std::all_of(cli.reports.begin(), cli.reports.end(), isConfigOnlyReport)) {
    jobs.clear();  // table2/table3 read only the spec
  }

  if (!cli.tracePath.empty()) {
    for (JobSpec& j : jobs) j.traceTxns = j.kind == JobKind::Scientific;
  }

  if (cli.shardCount != 1) {
    std::printf("sweep '%s': %zu job(s), shard %u/%u on %u worker(s), scale=%s\n",
                spec.name.c_str(), jobs.size(), cli.shardIndex, cli.shardCount, cli.jobs,
                spec.scale.c_str());
  } else {
    std::printf("sweep '%s': %zu job(s) on %u worker(s), scale=%s\n", spec.name.c_str(),
                jobs.size(), cli.jobs, spec.scale.c_str());
  }

  const auto t0 = std::chrono::steady_clock::now();
  CampaignResult campaign;
  try {
    CampaignOptions copts;
    copts.threads = cli.jobs;
    copts.storePath = storePath;
    // The first run of a campaign asked to be resumable has no store yet.
    if (cli.resume && std::filesystem::exists(storePath)) copts.resumeFrom.push_back(storePath);
    copts.resumeFrom.insert(copts.resumeFrom.end(), cli.mergePaths.begin(), cli.mergePaths.end());
    copts.shardIndex = cli.shardIndex;
    copts.shardCount = cli.shardCount;
    copts.stamp = {kSweepSchema, spec.scale, spec.traceRefs};
    campaign = runCampaign(jobs, copts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: sweep failed: %s\n", e.what());
    return 1;
  }
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;

  if (campaign.resumed > 0) {
    std::printf("resumed %zu completed job(s) from the store, ran %zu\n", campaign.resumed,
                campaign.executed);
  }

  const std::vector<RunRecord> records = canonicalRecords(campaign.results);
  const std::vector<ConfigAggregate> configs = aggregate(records);

  // Console summary: one line per config cell.
  std::printf("\n%-8s %-14s %-10s %8s %14s %14s %10s\n", "app", "config", "kind", "replicas",
              "exec_time", "avg_read_lat", "stddev%");
  for (const ConfigAggregate& c : configs) {
    double execMean = 0.0;
    double execStd = 0.0;
    double lat = 0.0;
    for (const auto& [n, s] : c.metrics) {
      if (n == "exec_time") {
        execMean = s.mean;
        execStd = s.stddev;
      } else if (n == "avg_read_latency") {
        lat = s.mean;
      }
    }
    std::printf("%-8s %-14s %-10s %8llu %14.0f %14.2f %9.2f%%\n", c.app.c_str(),
                c.config.c_str(), c.kind.c_str(), static_cast<unsigned long long>(c.replicas),
                execMean, lat, execMean > 0.0 ? execStd / execMean * 100.0 : 0.0);
  }

  // Whole-sweep totals over the scientific runs' records.
  std::uint64_t sciRuns = 0;
  std::uint64_t sciCycles = 0;
  std::uint64_t sciReads = 0;
  std::uint64_t sciMisses = 0;
  for (const JobResult& r : campaign.results) {
    if (r.job.kind == JobKind::Scientific) {
      sciCycles += static_cast<std::uint64_t>(r.record.value("exec_time"));
      sciReads += static_cast<std::uint64_t>(r.record.value("reads"));
      sciMisses += static_cast<std::uint64_t>(r.record.value("read_misses"));
      ++sciRuns;
    }
  }
  if (sciRuns > 0) {
    std::printf("\nscientific totals over %llu run(s): cycles=%llu reads=%llu misses=%llu\n",
                static_cast<unsigned long long>(sciRuns),
                static_cast<unsigned long long>(sciCycles),
                static_cast<unsigned long long>(sciReads),
                static_cast<unsigned long long>(sciMisses));
  }
  std::printf("wall: %.2fs (%zu jobs / %u workers)\n", wall.count(), jobs.size(), cli.jobs);
  if (!cli.reports.empty() && campaign.ok()) {
    std::printf("\n%s", renderReports(cli.reports, spec, campaign.results).c_str());
  }

  int rc = 0;
  if (!cli.tracePath.empty() && !writeChromeTrace(cli.tracePath, campaign.results)) rc = 1;
  if (!cli.jsonPath.empty()) {
    SweepJsonOptions jo;
    jo.specName = spec.name;
    jo.options = spec.documentOptions();
    jo.jobs = cli.jobs;
    jo.deterministic = cli.deterministic;
    std::ofstream out(cli.jsonPath);
    if (!out) {
      std::fprintf(stderr, "error: cannot open --json file '%s' for writing\n",
                   cli.jsonPath.c_str());
      rc = 1;
    } else {
      out << sweepToJson(records, configs, jo);
      if (!out) rc = 1;
    }
  }

  if (!campaign.failures.empty()) {
    // Sibling results were aggregated and written above; the failures are
    // reported job-by-job and the exit is non-zero so CI cannot miss them.
    std::fprintf(stderr, "\n%zu job(s) failed:\n", campaign.failures.size());
    for (const CampaignResult::Failure& f : campaign.failures) {
      std::fprintf(stderr, "  %s %s seed=%llu: %s\n", f.job.displayApp().c_str(),
                   f.job.configTag().c_str(), static_cast<unsigned long long>(f.job.seed),
                   f.error.c_str());
    }
    return 1;
  }
  return rc;
}

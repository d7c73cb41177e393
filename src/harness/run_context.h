// Per-run context & job execution. Everything that used to be process-global
// in bench/bench_util.h (the RunRecorder singleton, the Chrome-trace
// accumulator) lives here as explicit state owned by the caller, which is
// what makes in-process parallel sweeps possible: each simulation job is
// executed against fresh System/TraceSimulator instances and returns its
// results as a value; the coordinator folds them into one RunContext in
// deterministic job order, so `--jobs=N` never changes output bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/job.h"
#include "sim/metrics.h"
#include "sim/run_recorder.h"
#include "trace/trace_sim.h"
#include "traffic/traffic_model.h"
#include "traffic/traffic_stats.h"

namespace dresar::harness {

/// Chrome trace_event accumulator (--trace=FILE). Job bodies are appended in
/// job order; writeChromeTrace() assembles the final document.
struct TraceExport {
  bool enabled = false;
  std::string path;
  std::string body;   ///< concatenated per-job event fragments
  bool any = false;   ///< at least one fragment appended (comma placement)
  std::uint32_t nextPid = 1;  ///< next Chrome pid; runJobs() advances it

  /// Append one job's event fragment (no leading comma in the fragment).
  void append(const std::string& fragment);
  /// Write the complete trace document to `path`. Returns false (after
  /// reporting to stderr) if the file cannot be written.
  [[nodiscard]] bool write() const;
};

/// Explicit replacement for the old process-global bench state: one results
/// recorder plus one trace accumulator. NOT thread-safe by design — worker
/// threads produce standalone JobResults and only the coordinating thread
/// touches the context (see runJobs()).
struct RunContext {
  RunRecorder recorder;
  TraceExport traceExport;
};

/// Everything a finished job hands back to the coordinator.
struct JobResult {
  JobSpec job;
  bool ok = true;         ///< false: the job threw; only `job`/`error` valid
  std::string error;      ///< exception message when !ok
  RunRecord record;       ///< ready to add() to a recorder
  std::string traceBody;  ///< Chrome event fragment (empty unless traced)
  RunMetrics sci;         ///< valid when job.kind == Scientific
  TraceMetrics trace;     ///< valid when job.kind == Trace or Traffic
  double wallSeconds = 0.0;
};

/// Build the standard RunRecord for an execution-driven run. Exposed for
/// benches that drive System directly (ablations, tables).
RunRecord makeSciRecord(const std::string& app, const std::string& config,
                        std::uint64_t sdEntries, double wallSeconds, std::uint64_t events,
                        const RunMetrics& m);

/// Trace-run counterpart of makeSciRecord().
RunRecord makeTraceRecord(const std::string& app, const std::string& config,
                          std::uint64_t sdEntries, double wallSeconds, const TraceMetrics& m);

/// Traffic-run record: the trace metrics plus per-tenant counters, tail
/// percentiles (p99 / p99.9 read latency from the log-spaced histograms) and
/// per-phase controller occupancy. `burstElapsed` / `steadyElapsed` are the
/// model's arrival-clock cycles per phase; `numProcs` sizes the occupancy
/// denominator.
RunRecord makeTrafficRecord(const std::string& app, const std::string& config,
                            std::uint64_t sdEntries, double wallSeconds, const TraceMetrics& m,
                            const TrafficStats& stats, std::uint64_t burstElapsed,
                            std::uint64_t steadyElapsed, std::uint32_t numProcs);

/// The simulator configs a job runs with: the one place JobSpec fields reach
/// a config. executeJob() runs on them and SweepSpec::parse() validates every
/// expanded cell through them. SystemConfig for scientific jobs, TraceConfig for
/// trace and traffic jobs, TrafficConfig for traffic jobs.
SystemConfig systemConfigOf(const JobSpec& job);
TraceConfig traceConfigOf(const JobSpec& job);
TrafficConfig trafficConfigOf(const JobSpec& job);

/// Every validation error of the configs the job would run with; empty =
/// runnable.
std::vector<std::string> configErrors(const JobSpec& job);

/// Execute one job in complete isolation: fresh simulator state, no global
/// reads or writes. Thread-safe against concurrent executeJob() calls.
/// `chromePid` labels this job's slice group when transaction tracing is on.
JobResult executeJob(const JobSpec& job, std::uint32_t chromePid);

/// Serialized per-job completion hook (sweep persistence). Called from
/// worker threads under an internal mutex, in completion order — including
/// for failed jobs (result.ok == false).
using JobDoneFn = std::function<void(const JobResult&)>;

/// Run `jobs` (with `threads` workers when threads > 1; work-stealing pool),
/// then fold every result into `ctx` in job order: records into
/// ctx.recorder, trace fragments into ctx.traceExport. Results are returned
/// indexed exactly like `jobs`. A throwing job never aborts its siblings:
/// its slot comes back with ok == false and the exception message in
/// `error`, and no record is folded for it — callers decide whether partial
/// results are acceptable. `onJobDone`, when set, observes every completed
/// job as it finishes (for incremental persistence).
std::vector<JobResult> runJobs(RunContext& ctx, const std::vector<JobSpec>& jobs,
                               unsigned threads, const JobDoneFn& onJobDone = nullptr);

}  // namespace dresar::harness

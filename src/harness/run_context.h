// Job execution. Each simulation job runs against fresh System/TraceSimulator
// instances and returns its results, record included, as a value: nothing is
// shared between jobs, which is what makes in-process parallel sweeps
// possible. Records are put in canonical order once, by canonicalRecords(),
// so `--jobs=N` never changes output bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/job.h"
#include "sim/run_recorder.h"
#include "trace/trace_sim.h"
#include "traffic/traffic_model.h"

namespace dresar::harness {

/// Everything a finished job hands back to the coordinator.
struct JobResult {
  JobSpec job;
  bool ok = true;         ///< false: the job threw; only `job`/`error` valid
  std::string error;      ///< exception message when !ok
  RunRecord record;       ///< the run's record: every number any output reads
  std::string traceBody;  ///< Chrome event fragment (empty unless traced)
};

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

/// Run `jobs` (with `threads` workers when threads > 1; work-stealing pool).
/// Results are returned indexed exactly like `jobs`; job i traces under
/// Chrome pid i + 1. A throwing job never aborts its siblings: its slot comes
/// back with ok == false and the exception message in `error` — callers
/// decide whether partial results are acceptable. `onJobDone`, when set,
/// observes every completed job as it finishes (for incremental persistence).
std::vector<JobResult> runJobs(const std::vector<JobSpec>& jobs, unsigned threads,
                               const JobDoneFn& onJobDone = nullptr);

/// The records of the successful `results`, sorted by (app, config, seed,
/// kind). Job keys are unique, so this is a total order: a document
/// serializes identically whatever the worker scheduling, `--jobs=N`, or
/// split between resumed and fresh jobs.
std::vector<RunRecord> canonicalRecords(const std::vector<JobResult>& results);

/// Write the Chrome trace_event document (--trace=FILE) holding every
/// result's event fragment, in result order. Returns false (after reporting
/// to stderr) if the file cannot be written.
[[nodiscard]] bool writeChromeTrace(const std::string& path,
                                    const std::vector<JobResult>& results);

}  // namespace dresar::harness

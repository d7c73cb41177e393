// Cross-run aggregation and the sweep result document.
//
// Schema "dresar-bench-results/v7" — the sweep harness's aggregated output,
// the repo's one result document, and its one version. "runs" may hold many seed replicas per
// config cell (each with a "seed" key when > 1) and is canonically sorted by
// (app, config, seed); the top-level "configs" array summarizes every
// (app, config) cell with per-metric mean/stddev/min/max over its replicas.
// Timing fields are omitted entirely in deterministic mode so `--jobs=1` and
// `--jobs=N` documents are byte-identical.
//
//   {
//     "schema": "dresar-bench-results/v7",
//     "bench": "dresar-sweep",
//     "spec": "<sweep name>",
//     "options": { ... },
//     "jobs": <uint>,                      // worker threads used
//     "wall_seconds_total": <double>,      // omitted in deterministic mode
//     "runs": [
//       { "app": "FFT", "config": "sd-512", "kind": "scientific",
//         "sd_entries": 512, "seed": <uint>,   // seed only when > 1
//         "wall_seconds": <double>,            // omitted in deterministic mode
//         "events": <uint>,                    // sim events (or trace refs)
//         "metrics": { "<name>": <number>, ... },
//         ... optional "fault"/"traffic"/"congestion"/"latency_stages"
//             blocks, shapes in sim/run_recorder.h ...
//       }, ...
//     ],
//     "configs": [
//       { "app": "FFT", "config": "sd-512", "kind": "scientific",
//         "sd_entries": 512, "replicas": 3,
//         "metrics": { "exec_time": { "mean": .., "stddev": ..,
//                                     "min": .., "max": .. }, ... } }, ...
//     ]
//   }
//
// Every document carries the same label whatever blocks its runs hold; the
// job store stamps each line with it (harness/job_store.h).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/run_recorder.h"

namespace dresar::harness {

inline constexpr const char* kSweepSchema = "dresar-bench-results/v7";

struct MetricSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population stddev over replicas
  double min = 0.0;
  double max = 0.0;
};

/// Summary statistics over one metric's replica observations.
MetricSummary summarize(const std::vector<double>& xs);

/// One (app, config) cell: per-metric statistics over its seed replicas.
struct ConfigAggregate {
  std::string app;
  std::string config;
  std::string kind;
  std::uint64_t sdEntries = 0;
  std::uint64_t replicas = 0;
  std::vector<std::pair<std::string, MetricSummary>> metrics;  ///< first-replica order
};

/// Group canonically-sorted runs into config cells. Runs must already be
/// sorted (canonicalRecords(), harness/run_context.h); the output preserves
/// that order.
std::vector<ConfigAggregate> aggregate(const std::vector<RunRecord>& runs);

struct SweepJsonOptions {
  std::string specName;
  std::vector<std::pair<std::string, std::string>> options;  ///< echoed verbatim
  unsigned jobs = 1;
  bool deterministic = false;  ///< omit wall-clock fields
};

/// Serialize the full document from the canonically-sorted runs and their
/// aggregates.
std::string sweepToJson(const std::vector<RunRecord>& runs,
                        const std::vector<ConfigAggregate>& configs, const SweepJsonOptions& opts);

}  // namespace dresar::harness

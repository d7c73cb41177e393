// Cross-run aggregation and the sweep result document.
//
// Schema "dresar-bench-results/v3" — the sweep harness's aggregated output.
// v2 -> v3: "runs" may hold many seed replicas per config cell (each with a
// "seed" key when > 1) and is canonically sorted by (app, config, seed);
// a new top-level "configs" array summarizes every (app, config) cell with
// per-metric mean/stddev/min/max over its replicas. Timing fields are
// omitted entirely in deterministic mode so `--jobs=1` and `--jobs=N`
// documents are byte-identical.
//
//   {
//     "schema": "dresar-bench-results/v3",
//     "bench": "dresar-sweep",
//     "spec": "<sweep name>",
//     "options": { ... },
//     "jobs": <uint>,                      // worker threads used
//     "wall_seconds_total": <double>,      // omitted in deterministic mode
//     "runs": [ ... v2-shaped run records, sorted, plus "seed" ... ],
//     "configs": [
//       { "app": "FFT", "config": "sd-512", "kind": "scientific",
//         "sd_entries": 512, "replicas": 3,
//         "metrics": { "exec_time": { "mean": .., "stddev": ..,
//                                     "min": .., "max": .. }, ... } }, ...
//     ]
//   }
//
// v3 -> v4: a sweep with at least one fault-injection run carries schema
// "dresar-bench-results/v4" and each such run an extra "fault" object (same
// shape as the bench-document v4, see sim/run_recorder.h). Fault-free
// sweeps keep emitting v3 byte-for-byte.
//
// v4 -> v5: a sweep with at least one multi-tenant traffic run ("oltp"/"kv")
// carries schema "dresar-bench-results/v5" and each such run an extra
// "traffic" object (same shape as the bench-document v5, see
// sim/run_recorder.h). Precedence: traffic > fault > v3.
//
// v5 -> v6: a sweep with at least one congestion-lab run ("hotspot"/"incast"
// profiles or the flit-level network) carries schema
// "dresar-bench-results/v6" and each such run an extra "congestion" object
// (same shape as the bench-document v6, see sim/run_recorder.h).
// Precedence: congestion > traffic > fault > v3.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/run_recorder.h"

namespace dresar::harness {

inline constexpr const char* kSweepSchema = "dresar-bench-results/v3";
inline constexpr const char* kSweepSchemaTraffic = "dresar-bench-results/v5";

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
/// sorted (RunRecorder::sortCanonical()); the output preserves that order.
std::vector<ConfigAggregate> aggregate(const std::vector<RunRecord>& runs);

/// One metric's baseline-vs-current comparison (positive pct = increase).
struct MetricDelta {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  double pct = 0.0;  ///< (current - baseline) / baseline * 100; 0 when baseline == 0
};

/// Positionally compare two metric maps by name (shared by the harness
/// aggregator's console diff and the baseline regression gate).
std::vector<MetricDelta> compareMetrics(
    const std::vector<std::pair<std::string, double>>& baseline,
    const std::vector<std::pair<std::string, double>>& current);

struct SweepJsonOptions {
  std::string specName;
  std::vector<std::pair<std::string, std::string>> options;  ///< echoed verbatim
  unsigned jobs = 1;
  bool deterministic = false;  ///< omit wall-clock fields
};

/// Serialize the full v3 document from the merged recorder + aggregates.
std::string sweepToJson(const RunRecorder& merged, const std::vector<ConfigAggregate>& configs,
                        const SweepJsonOptions& opts);

}  // namespace dresar::harness

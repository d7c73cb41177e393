// Run records: one finished simulation's metrics plus its optional blocks,
// the one result shape every output folds over. The sweep document
// (harness/aggregate.h), the job store (harness/job_store.h), the console
// summary and the study reports (harness/study_report.h) all read records,
// so a cell folded in from a store reports exactly like a fresh one. Each
// block is written once, by the producer that holds the run's state
// (harness/run_context.cpp), and carried as a parsed JSON value, so every
// output emits the same shape.
//
// The flat "metrics" map carries every number a report reads. Beyond the
// headline counters, scientific records append "total_read_lat_ctoc",
// "total_read_lat_clean_miss" (Figure 1's latency split) and one
// "msgs_<MsgType>" count per message type (Table 1); trace and traffic
// records append "total_read_latency" (Figure 10).
//
// "fault": a run that injected faults.
//   "fault": {
//     "injected_drops": <uint>, "injected_delays": <uint>,
//     "injected_delay_cycles": <uint>, "injected_sd_losses": <uint>,
//     "injected_stall_cycles": <uint>, "injected_effective": <uint>,
//     "timeout_reissues": <uint>, "recovered": <uint>,
//     "fallback_home_lookups": <uint>
//   }
//
// "traffic": a multi-tenant traffic run (workloads "oltp"/"kv").
//   "traffic": {
//     "tenants": <uint>,
//     "p99_read_latency": <double>, "p999_read_latency": <double>,
//     "p99_overflowed": <bool>, "p999_overflowed": <bool>,   // clamp flags
//     "burst_occupancy": <double>, "steady_occupancy": <double>,
//     "burst_cycles": <uint>, "steady_cycles": <uint>,
//     "per_tenant": [
//       { "reads": <uint>, "writes": <uint>,
//         "mean_read_latency": <double>, "max_read_latency": <double> }, ...
//     ]
//   }
// Percentiles come from log2-spaced histograms (common/stats.h), so a true
// tail value is reported up to the histogram bound; the *_overflowed flags
// record when the value was clamped instead.
//
// "congestion": a congestion-lab run (the "hotspot"/"incast"
// traffic profiles, or any run on the flit-level network).
//   "congestion": {
//     "offered_rate": <double>,   // refs per arrival-clock cycle, machine-wide
//     "accepted_rate": <double>,  // refs per simulated cycle actually retired
//     "runs": <uint>,             // merge weight (seed replicas folded in)
//     "credit_stall_cycles": <uint>, "link_busy_skips": <uint>,
//     "source_credit_stalls": <uint>,
//     "per_switch_credit_stalls": [ <uint>, ... ],   // flat switch order
//     "stage_occupancy": [                           // one row per BMIN stage
//       { "mean": <double>, "max": <double>, "samples": <uint>,
//         "hist": [ <uint>, ... ] },  // log2 buckets, last = overflow
//       ...
//     ],
//     "lock_hold": { "mean": <double>, "max": <double>, "count": <uint>,
//                    "hist": [ <uint>, ... ] }   // wormhole output-lock holds
//   }
// Message-level congestion runs carry the rates with empty telemetry arrays
// (only the flit network samples per-switch state).
//
// "latency_stages": a run that traced transactions
// (dresar-sweep --trace), per transaction class.
//   "latency_stages": {
//     "read": {
//       "txns": <uint>,
//       "end_to_end_cycles": <double>,
//       "stages": { "cache_access": <double>, ..., "backoff": <double> }
//     },
//     "write": { ... same shape ... }
//   }
//
// A run carries its blocks in this order: fault, traffic, congestion,
// latency_stages. Numbers in a block are read back as doubles, exact for the
// counters (all below 2^53), so an integral value prints as an integer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/json_reader.h"

namespace dresar {

class JsonWriter;

struct RunRecord {
  std::string app;     ///< workload name (FFT, TPC-D, ...)
  std::string config;  ///< short config tag, e.g. "base" or "sd-512"
  std::string kind;    ///< "scientific" (event-driven) or "trace"
  std::uint64_t sdEntries = 0;
  std::uint64_t seed = 0;  ///< replica seed (harness sweeps); 0 = unset, not serialized
  double wallSeconds = 0.0;
  std::uint64_t events = 0;  ///< executed events (scientific) / refs (trace)
  std::vector<std::pair<std::string, double>> metrics;
  /// The optional blocks this run carries, by name, in emission order.
  std::vector<std::pair<std::string, JsonValue>> blocks;

  void metric(std::string name, double v) { metrics.emplace_back(std::move(name), v); }

  /// Metric `name`'s value, or 0 when the run carries none.
  [[nodiscard]] double value(std::string_view name) const;

  /// Append block `name`: `write` emits its value (one object) at
  /// round-trip precision, and the record keeps the parsed result.
  void addBlock(std::string name, const std::function<void(JsonWriter&)>& write);

  /// The block called `name`, or nullptr when the run carries none.
  [[nodiscard]] const JsonValue* block(std::string_view name) const;
};

/// True for the four block names above; a record holds no other.
[[nodiscard]] bool isRecordBlock(std::string_view name);

/// How a record is written: in a result document (with or without the
/// wall-clock field) or in a job-store line, which keeps every field so the
/// record reads back whole.
enum class RecordForm : std::uint8_t { Document, DeterministicDocument, StoreLine };

/// Emit `r` as one JSON object: the headline fields, the metrics, then each
/// block. The one writer of run records, shared by the sweep document and
/// the job store (which differ only in `form` and the writer's precision).
void writeRunRecord(JsonWriter& w, const RunRecord& r, RecordForm form);

}  // namespace dresar

// Machine-readable bench results: every figure/ablation binary can record the
// runs it performed and dump them as one JSON document (--json=FILE). The
// schema is versioned so downstream tooling can detect incompatible changes.
//
// Schema "dresar-bench-results/v2":
//   {
//     "schema": "dresar-bench-results/v2",
//     "bench": "<binary name>",
//     "options": { "<key>": "<value>", ... },
//     "wall_seconds_total": <double>,
//     "sim_events_total": <uint>,
//     "events_per_sec": <double>,
//     "runs": [
//       {
//         "app": "FFT", "config": "sd-512", "kind": "scientific"|"trace",
//         "sd_entries": <uint>,             // 0 when no switch directory
//         "wall_seconds": <double>,
//         "events": <uint>,                 // executed sim events (or trace refs)
//         "events_per_sec": <double>,
//         "metrics": { "<name>": <number>, ... },
//         "latency_stages": {               // v2; only when the run traced txns
//           "read": {
//             "txns": <uint>,
//             "end_to_end_cycles": <double>,
//             "stages": { "cache_access": <double>, ..., "backoff": <double> }
//           },
//           "write": { ... same shape ... }
//         }
//       }, ...
//     ]
//   }
//
// v1 -> v2: added the optional per-run "latency_stages" breakdown (the
// transaction tracer's per-stage cycle attribution). v1 consumers that
// ignore unknown keys keep working; the schema string changed because the
// version is the documented compatibility contract.
//
// v2 -> v4: documents with at least one fault-injection run carry schema
// "dresar-bench-results/v4" and each such run an extra "fault" object:
//   "fault": {
//     "injected_drops": <uint>, "injected_delays": <uint>,
//     "injected_delay_cycles": <uint>, "injected_sd_losses": <uint>,
//     "injected_stall_cycles": <uint>, "injected_effective": <uint>,
//     "timeout_reissues": <uint>, "recovered": <uint>,
//     "fallback_home_lookups": <uint>
//   }
// Fault-free documents keep emitting v2 byte-for-byte (v3 is the sweep
// aggregate schema, see harness/aggregate.h — the version numbers are shared
// across both document families so "fault" means >= v4 everywhere).
//
// v4 -> v5: documents with at least one multi-tenant traffic run (workloads
// "oltp"/"kv") carry schema "dresar-bench-results/v5" and each such run an
// extra "traffic" object:
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
// record when the value was clamped instead. Traffic-free documents keep
// their previous schema byte-for-byte; precedence is traffic > fault > v2.
//
// v5 -> v6: documents with at least one congestion-lab run (the "hotspot"/
// "incast" traffic profiles, or any run on the flit-level network) carry
// schema "dresar-bench-results/v6" and each such run an extra "congestion"
// object:
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
// (only the flit network samples per-switch state). Congestion-free
// documents keep their previous schema byte-for-byte; precedence is
// congestion > traffic > fault > v2.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/txn_trace.h"

namespace dresar {

struct RunRecord {
  std::string app;     ///< workload name (FFT, TPC-D, ...)
  std::string config;  ///< short config tag, e.g. "base" or "sd-512"
  std::string kind;    ///< "scientific" (event-driven) or "trace"
  std::uint64_t sdEntries = 0;
  std::uint64_t seed = 0;  ///< replica seed (harness sweeps); 0 = unset, not serialized
  double wallSeconds = 0.0;
  std::uint64_t events = 0;  ///< executed events (scientific) / refs (trace)
  std::vector<std::pair<std::string, double>> metrics;

  /// Fault-injection counters (only serialized when hasFault is set; any
  /// faulted run upgrades the document schema to v4).
  bool hasFault = false;
  std::uint64_t faultInjectedDrops = 0;
  std::uint64_t faultInjectedDelays = 0;
  std::uint64_t faultInjectedDelayCycles = 0;
  std::uint64_t faultInjectedSdLosses = 0;
  std::uint64_t faultInjectedStallCycles = 0;
  std::uint64_t faultInjectedEffective = 0;
  std::uint64_t faultTimeoutReissues = 0;
  std::uint64_t faultRecovered = 0;
  std::uint64_t faultFallbackHomeLookups = 0;

  /// Per-tenant row of a traffic run's "traffic" block.
  struct TrafficTenant {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    double meanReadLatency = 0.0;
    double maxReadLatency = 0.0;
  };

  /// Multi-tenant traffic metrics (only serialized when hasTraffic is set;
  /// any traffic run upgrades the document schema to v5).
  bool hasTraffic = false;
  std::uint64_t trafficTenantCount = 0;
  double trafficP99Read = 0.0;
  double trafficP999Read = 0.0;
  bool trafficP99Overflowed = false;
  bool trafficP999Overflowed = false;
  double trafficBurstOccupancy = 0.0;
  double trafficSteadyOccupancy = 0.0;
  std::uint64_t trafficBurstCycles = 0;
  std::uint64_t trafficSteadyCycles = 0;
  std::vector<TrafficTenant> trafficPerTenant;

  /// One BMIN stage's input-buffer occupancy summary in the "congestion"
  /// block: per-switch-tick samples of total buffered flits.
  struct CongestionStage {
    double mean = 0.0;
    double max = 0.0;
    std::uint64_t samples = 0;
    std::vector<std::uint64_t> hist;  ///< log2 buckets, last = overflow
  };

  /// Congestion-lab saturation telemetry (only serialized when hasCongestion
  /// is set; any such run upgrades the document schema to v6). Flattened
  /// from interconnect CongestionTelemetry so this header stays plain data.
  bool hasCongestion = false;
  double congOfferedRate = 0.0;
  double congAcceptedRate = 0.0;
  std::uint64_t congRuns = 0;
  std::uint64_t congCreditStallCycles = 0;
  std::uint64_t congLinkBusySkips = 0;
  std::uint64_t congSourceCreditStalls = 0;
  std::vector<std::uint64_t> congPerSwitchCreditStalls;
  std::vector<CongestionStage> congStageOccupancy;
  double congLockHoldMean = 0.0;
  double congLockHoldMax = 0.0;
  std::uint64_t congLockHoldCount = 0;
  std::vector<std::uint64_t> congLockHoldHist;

  /// Latency attribution (only serialized when hasTrace is set).
  bool hasTrace = false;
  std::uint64_t traceReadTxns = 0;
  std::uint64_t traceWriteTxns = 0;
  double traceReadEndToEnd = 0.0;
  double traceWriteEndToEnd = 0.0;
  std::array<double, kTxnStageCount> traceReadStage{};
  std::array<double, kTxnStageCount> traceWriteStage{};

  void metric(std::string name, double v) { metrics.emplace_back(std::move(name), v); }
};

class JsonWriter;

/// Emit `r`'s optional "fault", "traffic" and "congestion" blocks, each only
/// when the record carries it. Caller must be inside the run's object scope.
/// The one writer of these blocks, shared by the bench document, the sweep
/// document (harness/aggregate.cpp) and the job store (which differ only in
/// the writer's double precision), so the blocks cannot drift.
void writeRecordBlocks(JsonWriter& w, const RunRecord& r);

/// Schema of a result document over `runs`: the newest optional block any
/// run carries (precedence congestion v6 > traffic v5 > fault v4), else
/// `plain`, so documents without the blocks keep their schema byte-for-byte.
const char* resultSchema(const std::vector<RunRecord>& runs, const char* plain);

/// Accumulates RunRecords across a bench binary's runs and serializes them.
///
/// Not internally synchronized. Concurrent producers (the sweep harness's
/// worker threads) each own a private RunRecorder and the coordinator folds
/// them together with merge() once the workers have joined — cheaper than a
/// mutex on every add() and it keeps single-threaded benches overhead-free.
class RunRecorder {
 public:
  void setBench(std::string name) { bench_ = std::move(name); }
  void setOption(std::string key, std::string value) {
    options_.emplace_back(std::move(key), std::move(value));
  }

  void add(RunRecord r) { runs_.push_back(std::move(r)); }

  /// Steal every run (and any options) from `other`, leaving it empty.
  /// Bench name is kept from *this unless unset.
  void merge(RunRecorder&& other);

  /// Sort runs by (app, config, seed, kind) so a parallel sweep serializes
  /// identically regardless of worker scheduling. Stable, so records that
  /// compare equal keep their insertion order.
  void sortCanonical();

  [[nodiscard]] const std::vector<RunRecord>& runs() const { return runs_; }

  /// Serialize to the v1 schema. Returns the document as a string.
  [[nodiscard]] std::string toJson() const;

  /// Write toJson() to `path` (trailing newline included). Returns false and
  /// reports to stderr if the file cannot be written.
  bool writeFile(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<std::pair<std::string, std::string>> options_;
  std::vector<RunRecord> runs_;
};

}  // namespace dresar

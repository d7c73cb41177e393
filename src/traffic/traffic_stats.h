// Per-tenant counters and tail-latency accounting for traffic runs.
//
// The scalar mean hides exactly what consolidation hurts: a cold tenant's
// p99.9 blowing up while the hot tenant's mass keeps the average flat. So
// read service latencies stream into log2-spaced histograms (Histogram
// LogSpaced mode — bounded relative error out to the deep tail) split by
// arrival phase, and each tenant keeps its own counters, so schema consumers
// can see both "which tenant" and "how bad the tail" without a trace dump.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "traffic/traffic_model.h"

namespace dresar {

struct TenantCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  Sampler readLatency;  ///< cycles per read, this tenant
};

class TrafficStats {
 public:
  explicit TrafficStats(std::uint32_t tenants);

  /// Account one completed reference: `latency` is what the simulator
  /// charged the issuing processor for it.
  void record(const TrafficRef& ref, Cycle latency);
  /// Merge another node's stats (same tenant count) — used by the event-driven
  /// workload, which keeps one TrafficStats per node stream.
  void merge(const TrafficStats& o);

  [[nodiscard]] const std::vector<TenantCounters>& tenants() const { return tenants_; }
  [[nodiscard]] const Histogram& readLatency() const { return readLat_; }
  [[nodiscard]] const Histogram& burstReadLatency() const { return burstLat_; }
  [[nodiscard]] const Histogram& steadyReadLatency() const { return steadyLat_; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }

  /// Mean fraction of each controller busy serving reads that arrived in
  /// burst (resp. steady) windows: sum of read service latency over the
  /// phase's elapsed cycles times the controller count. Can exceed 1 when
  /// the offered load outruns the controllers — that is the signal.
  [[nodiscard]] double burstOccupancy(std::uint64_t burstElapsed, std::uint32_t numProcs) const;
  [[nodiscard]] double steadyOccupancy(std::uint64_t steadyElapsed, std::uint32_t numProcs) const;

 private:
  std::vector<TenantCounters> tenants_;
  Histogram readLat_;
  Histogram burstLat_;
  Histogram steadyLat_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  double burstLatSum_ = 0.0;
  double steadyLatSum_ = 0.0;
};

}  // namespace dresar

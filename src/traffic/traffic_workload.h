// Event-driven front end for the traffic models: registry names "oltp" and
// "kv". Each node runs one pinned TrafficModel stream (streamId = pid + 1,
// see traffic_model.h) as an open-loop client: it sleeps out the model's
// interarrival gaps with ctx.delay() and issues the reference against the
// real coherence protocol, so burst windows genuinely pile requests onto the
// controllers instead of being a latency bookkeeping trick. Tenant arenas
// and the shared segment come from the run's AddressSpace (page-interleaved
// across homes); per-node TrafficStats merge into stats().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "traffic/traffic_model.h"
#include "traffic/traffic_stats.h"
#include "workloads/workload.h"

namespace dresar {

class TrafficWorkload final : public Workload {
 public:
  /// `profile` is a traffic registry name ("oltp" / "kv" / "hotspot" /
  /// "incast"); each node issues `refsPerNode` references at `offeredLoad`
  /// times the profile's nominal arrival rate.
  TrafficWorkload(std::string profile, std::uint64_t refsPerNode, double offeredLoad = 1.0);

  [[nodiscard]] std::string name() const override;
  void setup(System& sys) override;
  SimTask body(System& sys, ThreadContext& ctx) override;
  [[nodiscard]] WorkloadResult verify(System& sys) override;
  /// Congestion-lab annotation (hotspot/incast only): machine-wide offered
  /// vs accepted reference rate, the saturation-curve y-axes.
  void annotate(RunMetrics& m) override;

  /// All nodes' stats merged; valid after the run.
  [[nodiscard]] TrafficStats stats() const;
  /// Arrival-clock cycles spent in burst (resp. steady) windows, summed over
  /// node streams — the occupancy denominators.
  [[nodiscard]] std::uint64_t burstCyclesElapsed() const;
  [[nodiscard]] std::uint64_t steadyCyclesElapsed() const;

 private:
  std::string profile_;
  std::uint64_t refsPerNode_;
  double offeredLoad_ = 1.0;
  std::uint32_t tenants_ = 0;
  std::vector<std::unique_ptr<TrafficModel>> models_;  // one per node
  std::vector<TrafficStats> stats_;                    // one per node
};

namespace workloads {
std::unique_ptr<Workload> makeTraffic(const std::string& profile, std::uint64_t refsPerNode,
                                      double offeredLoad = 1.0);
}  // namespace workloads

}  // namespace dresar

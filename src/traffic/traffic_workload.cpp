#include "traffic/traffic_workload.h"

#include <cctype>
#include <sstream>

#include "sim/address_space.h"

namespace dresar {

TrafficWorkload::TrafficWorkload(std::string profile, std::uint64_t refsPerNode,
                                 double offeredLoad)
    : profile_(std::move(profile)), refsPerNode_(refsPerNode), offeredLoad_(offeredLoad) {
  TrafficConfig::byName(profile_, 1);  // fail fast on unknown profiles
}

std::string TrafficWorkload::name() const {
  std::string up = profile_;
  for (char& c : up) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return up;
}

void TrafficWorkload::setup(System& sys) {
  const SystemConfig& cfg = sys.config();
  TrafficConfig base = TrafficConfig::byName(profile_, refsPerNode_);
  base.numProcs = cfg.numNodes;
  base.lineBytes = cfg.lineBytes;
  base.pageBytes = cfg.pageBytes;
  base.offeredLoad = offeredLoad_;
  if (base.hotNode >= cfg.numNodes) base.hotNode = 0;
  tenants_ = base.tenants;

  // Tenant arenas and the shared segment live in the run's page-interleaved
  // arena, so homes spread across all memories like any other workload's data.
  TrafficLayout layout;
  layout.tenantBases.reserve(base.tenants);
  for (std::uint32_t t = 0; t < base.tenants; ++t) {
    layout.tenantBases.push_back(
        sys.mem().alloc(static_cast<std::size_t>(base.keysPerTenant) * base.lineBytes));
  }
  layout.sharedBase =
      sys.mem().alloc(static_cast<std::size_t>(base.sharedBlocks) * base.lineBytes);
  // Congestion-lab segments need real homes: the hot page lives at hotNode,
  // one victim page at each node (allocAt keeps each within one page).
  if (base.hotFrac > 0.0) {
    layout.hotBase = sys.mem().allocAt(base.hotNode, cfg.pageBytes);
  }
  if (base.incastPeriodCycles > 0) {
    layout.victimBases.reserve(cfg.numNodes);
    for (NodeId v = 0; v < cfg.numNodes; ++v) {
      layout.victimBases.push_back(sys.mem().allocAt(v, cfg.pageBytes));
    }
  }

  models_.clear();
  stats_.clear();
  // Every node draws from the same Zipf tables; only the streams differ.
  const TrafficSamplers samplers(base);
  for (NodeId p = 0; p < cfg.numNodes; ++p) {
    TrafficConfig c = base;
    c.streamId = p + 1;  // per-node stream (traffic_model.h discipline)
    c.pinnedPid = static_cast<std::int32_t>(p);
    models_.push_back(std::make_unique<TrafficModel>(c, layout, samplers));
    stats_.emplace_back(base.tenants);
  }
}

SimTask TrafficWorkload::body(System&, ThreadContext& ctx) {
  TrafficModel& model = *models_[ctx.id()];
  TrafficStats& mine = stats_[ctx.id()];
  std::uint64_t lastArrival = 0;
  TrafficRef ref;
  while (model.nextRef(ref)) {
    if (ref.arrivalCycle > lastArrival) {
      co_await ctx.delay(ref.arrivalCycle - lastArrival);
      lastArrival = ref.arrivalCycle;
    }
    if (ref.rec.write) {
      co_await ctx.store(ref.rec.addr);
      mine.record(ref, 1);  // release consistency: retire latency only
    } else {
      const ReadResult r = co_await ctx.load(ref.rec.addr);
      mine.record(ref, r.latency);
    }
  }
  co_await ctx.fence();
}

WorkloadResult TrafficWorkload::verify(System& sys) {
  const std::uint64_t want = refsPerNode_ * sys.config().numNodes;
  std::uint64_t emitted = 0;
  for (const auto& m : models_) emitted += m->emitted();
  const TrafficStats merged = stats();
  if (emitted != want) {
    return {false, "traffic stream under-ran: emitted " + std::to_string(emitted) + " of " +
                       std::to_string(want)};
  }
  if (merged.reads() + merged.writes() != want) {
    return {false, "traffic accounting mismatch: recorded " +
                       std::to_string(merged.reads() + merged.writes()) + " of " +
                       std::to_string(want)};
  }
  std::ostringstream os;
  os << want << " refs, read p99 " << merged.readLatency().percentile(0.99) << " cycles";
  return {true, os.str()};
}

TrafficStats TrafficWorkload::stats() const {
  TrafficStats merged(tenants_);
  for (const TrafficStats& s : stats_) merged.merge(s);
  return merged;
}

std::uint64_t TrafficWorkload::burstCyclesElapsed() const {
  std::uint64_t c = 0;
  for (const auto& m : models_) c += m->burstCyclesElapsed();
  return c;
}

std::uint64_t TrafficWorkload::steadyCyclesElapsed() const {
  std::uint64_t c = 0;
  for (const auto& m : models_) c += m->steadyCyclesElapsed();
  return c;
}

void TrafficWorkload::annotate(RunMetrics& m) {
  // Only the congestion profiles drive saturation curves; oltp/kv keep their
  // v5 tail-latency schema byte-identical.
  if (profile_ != "hotspot" && profile_ != "incast") return;
  std::uint64_t refs = 0;
  for (const auto& model : models_) refs += model->emitted();
  // Offered rate: what the open-loop streams asked for, machine-wide —
  // references per arrival-clock cycle, summed across node streams (the
  // per-stream clocks advance independently, so scale by stream count).
  const std::uint64_t clockSum = burstCyclesElapsed() + steadyCyclesElapsed();
  if (clockSum > 0) {
    m.congOfferedRate =
        static_cast<double>(refs) * static_cast<double>(models_.size()) /
        static_cast<double>(clockSum);
  }
  // Accepted rate: what the machine actually completed per simulated cycle.
  // Under saturation execTime stretches past the arrival clock and this
  // plateaus below the offered rate.
  if (m.execTime > 0) {
    m.congAcceptedRate = static_cast<double>(refs) / static_cast<double>(m.execTime);
  }
  m.congestionEnabled = true;
  if (m.congRuns == 0) m.congRuns = 1;
}

namespace workloads {
std::unique_ptr<Workload> makeTraffic(const std::string& profile, std::uint64_t refsPerNode,
                                      double offeredLoad) {
  return std::make_unique<TrafficWorkload>(profile, refsPerNode, offeredLoad);
}
}  // namespace workloads

}  // namespace dresar

#include "traffic/traffic_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace dresar {

namespace {
// Region bases sit above the TPC generators' arenas (tpc_gen.cpp tops out at
// 1<<35 + strides) so mixed traces could never alias.
constexpr Addr kTenantBase = Addr{1} << 36;
constexpr Addr kTenantStride = Addr{1} << 28;  // per-tenant arena
constexpr Addr kSharedBase = Addr{1} << 38;

/// Seed material for stream `streamId` of run seed `seed`: one SplitMix64
/// draw from a state that mixes the id in with an odd constant, so streams
/// 0..N are mutually independent and stream 0 != Rng(seed) (the harness uses
/// raw Rng(seed) for its own perturbations).
std::uint64_t streamSeed(std::uint64_t seed, std::uint32_t streamId) {
  Rng mix(seed + 0x632BE59BD9B4E019ull * (std::uint64_t{streamId} + 1));
  return mix.next();
}
}  // namespace

TrafficLayout TrafficLayout::fixed(std::uint32_t tenants) {
  TrafficLayout l;
  l.tenantBases.reserve(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t) l.tenantBases.push_back(kTenantBase + t * kTenantStride);
  l.sharedBase = kSharedBase;
  return l;
}

TrafficLayout TrafficLayout::fixedFor(const TrafficConfig& cfg) {
  TrafficLayout l = fixed(cfg.tenants);
  // Homes are round-robin by page (addr/pageBytes mod numProcs), so the
  // first page at/above a base whose index is congruent to the target node
  // is homed there. Regions sit above kSharedBase; victims stride far apart.
  const Addr page = cfg.pageBytes;
  auto pageHomedAt = [&](Addr base, std::uint32_t node) {
    const Addr basePage = base / page;
    const Addr p =
        basePage + (node + cfg.numProcs - static_cast<std::uint32_t>(basePage % cfg.numProcs)) %
                       cfg.numProcs;
    return p * page;
  };
  if (cfg.hotFrac > 0.0) l.hotBase = pageHomedAt(Addr{1} << 39, cfg.hotNode);
  if (cfg.incastPeriodCycles > 0) {
    l.victimBases.reserve(cfg.numProcs);
    const Addr victimRegion = (Addr{1} << 39) + (Addr{1} << 30);
    for (std::uint32_t v = 0; v < cfg.numProcs; ++v) {
      l.victimBases.push_back(pageHomedAt(victimRegion + v * (Addr{1} << 20), v));
    }
  }
  return l;
}

TrafficConfig TrafficConfig::oltp(std::uint64_t refs) {
  TrafficConfig c;  // the member defaults ARE the OLTP profile
  c.refs = refs;
  // Hot rows drift a few times per run regardless of length, so short smoke
  // runs and billion-reference campaigns both exercise migration.
  c.migrationPeriodRefs = std::max<std::uint64_t>(refs / 4, 1);
  return c;
}

TrafficConfig TrafficConfig::kv(std::uint64_t refs) {
  TrafficConfig c;
  c.name = "kv";
  c.refs = refs;
  c.tenants = 8;
  c.keysPerTenant = 60'000;
  c.skew = 1.1;       // KV caches see stronger key skew than row stores
  c.tenantSkew = 0.8;
  c.writeFrac = 0.02;
  c.sharedFrac = 0.01;
  c.sharedBlocks = 1'000;
  c.localityFrac = 0.1;
  c.localityWindow = 32;
  c.meanGapCycles = 25;
  c.migrationPeriodRefs = std::max<std::uint64_t>(refs / 2, 1);
  return c;
}

TrafficConfig TrafficConfig::hotspot(std::uint64_t refs) {
  TrafficConfig c = oltp(refs);
  c.name = "hotspot";
  // Half the steps are migratory pairs on one hot page: the request legs all
  // converge on hotNode's home memory and the c2c data replies concentrate
  // in the switch column above it — where turnaround routing has freedom.
  c.hotFrac = 0.5;
  c.hotNode = 0;
  c.hotBlocks = 64;
  c.meanGapCycles = 30;  // run hotter than plain OLTP so saturation is reachable
  return c;
}

TrafficConfig TrafficConfig::incast(std::uint64_t refs) {
  TrafficConfig c = oltp(refs);
  c.name = "incast";
  // Synchronized fan-in: all nodes fire a read burst at the same victim page
  // every period, barrier-style; the victim rotates batch to batch.
  c.incastPeriodCycles = 2'000;
  c.incastBatchRefs = 16;
  return c;
}

TrafficConfig TrafficConfig::byName(const std::string& name, std::uint64_t refs) {
  if (name == "oltp") return oltp(refs);
  if (name == "kv") return kv(refs);
  if (name == "hotspot") return hotspot(refs);
  if (name == "incast") return incast(refs);
  throw std::invalid_argument("traffic: unknown profile '" + name +
                              "' (want oltp, kv, hotspot, or incast)");
}

void TrafficConfig::applyMix(const std::string& mix) {
  if (mix == "readmostly") return;  // every profile is read-mostly out of the box
  if (mix == "writeheavy") {
    writeFrac = 0.4;
    return;
  }
  throw std::invalid_argument("traffic: unknown mix '" + mix + "' (want readmostly or writeheavy)");
}

bool isTrafficWorkload(const std::string& name) { return name == "oltp" || name == "kv"; }

bool isTrafficMix(const std::string& mix) { return mix == "readmostly" || mix == "writeheavy"; }

std::vector<std::string> TrafficConfig::validationErrors() const {
  std::vector<std::string> errs;
  auto frac = [&errs](double v, const char* what) {
    if (v < 0.0 || v > 1.0) {
      std::ostringstream os;
      os << what << " must be in [0,1], got " << v;
      errs.push_back(os.str());
    }
  };
  if (refs == 0) errs.emplace_back("refs must be > 0");
  if (numProcs == 0 || numProcs > 128) errs.emplace_back("numProcs must be in [1,128]");
  if (lineBytes == 0) errs.emplace_back("lineBytes must be > 0");
  if (tenants == 0) errs.emplace_back("tenants must be > 0");
  if (keysPerTenant == 0) errs.emplace_back("keysPerTenant must be > 0");
  if (skew < 0.0) errs.emplace_back("skew must be >= 0");
  if (tenantSkew < 0.0) errs.emplace_back("tenantSkew must be >= 0");
  frac(writeFrac, "writeFrac");
  frac(sharedFrac, "sharedFrac");
  frac(localityFrac, "localityFrac");
  if (sharedFrac > 0.0 && sharedBlocks == 0) errs.emplace_back("sharedBlocks must be > 0 when sharedFrac > 0");
  if (localityFrac > 0.0 && localityWindow == 0) errs.emplace_back("localityWindow must be > 0 when localityFrac > 0");
  if (meanGapCycles == 0) errs.emplace_back("meanGapCycles must be > 0");
  if (pinnedPid >= 0 && static_cast<std::uint32_t>(pinnedPid) >= numProcs) {
    errs.emplace_back("pinnedPid must be < numProcs");
  }
  if (burstMultiplier <= 0.0) errs.emplace_back("burstMultiplier must be > 0");
  if (steadyCycles == 0) errs.emplace_back("steadyCycles must be > 0");
  frac(hotFrac, "hotFrac");
  if (pageBytes < lineBytes) errs.emplace_back("pageBytes must be >= lineBytes");
  if (hotFrac > 0.0) {
    if (hotNode >= numProcs) errs.emplace_back("hotNode must be < numProcs");
    if (hotBlocks == 0 || hotBlocks > pageBytes / std::max(lineBytes, 1u)) {
      errs.emplace_back("hotBlocks must be in [1, pageBytes/lineBytes] (the hot set is one page)");
    }
  }
  if (incastPeriodCycles > 0 && incastBatchRefs == 0) {
    errs.emplace_back("incastBatchRefs must be > 0 when incastPeriodCycles > 0");
  }
  if (offeredLoad <= 0.0) errs.emplace_back("offeredLoad must be > 0");
  return errs;
}

void TrafficConfig::validate() const {
  const std::vector<std::string> errs = validationErrors();
  if (errs.empty()) return;
  std::string msg = "invalid TrafficConfig:";
  for (const std::string& e : errs) msg += "\n  - " + e;
  throw std::invalid_argument(msg);
}

TrafficSamplers::TrafficSamplers(const TrafficConfig& cfg)
    : tenant(cfg.tenants, cfg.tenantSkew),
      key(cfg.keysPerTenant, cfg.skew),
      shared(std::max<std::uint32_t>(cfg.sharedBlocks, 1), cfg.sharedSkew) {}

TrafficModel::TrafficModel(const TrafficConfig& cfg)
    : TrafficModel(cfg, TrafficLayout::fixedFor(cfg)) {}

TrafficModel::TrafficModel(const TrafficConfig& cfg, TrafficLayout layout)
    : TrafficModel(cfg, std::move(layout), TrafficSamplers(cfg)) {}

TrafficModel::TrafficModel(const TrafficConfig& cfg, TrafficLayout layout,
                           const TrafficSamplers& samplers)
    : cfg_(cfg),
      layout_(std::move(layout)),
      rng_(streamSeed(cfg.seed, cfg.streamId)),
      zipf_(samplers),
      sharedOwner_(std::max<std::uint32_t>(cfg.sharedBlocks, 1), kInvalidNode),
      hotOwner_(std::max<std::uint32_t>(cfg.hotBlocks, 1), kInvalidNode),
      recent_(cfg.numProcs),
      recentHead_(cfg.numProcs, 0) {
  cfg_.validate();
  const auto matches = [](const ZipfSampler& z, std::size_t n, double s) {
    return z.size() == n && z.exponent() == s;
  };
  if (!matches(zipf_.tenant, cfg_.tenants, cfg_.tenantSkew) ||
      !matches(zipf_.key, cfg_.keysPerTenant, cfg_.skew) ||
      !matches(zipf_.shared, std::max<std::uint32_t>(cfg_.sharedBlocks, 1), cfg_.sharedSkew)) {
    throw std::invalid_argument("traffic: samplers were built for a different Zipf config");
  }
  if (layout_.tenantBases.size() < cfg_.tenants) {
    throw std::invalid_argument("traffic: layout has fewer tenant bases than tenants");
  }
  if (cfg_.hotFrac > 0.0 && layout_.hotBase == 0) {
    throw std::invalid_argument("traffic: hotFrac > 0 but layout has no hot page");
  }
  if (cfg_.incastPeriodCycles > 0) {
    if (layout_.victimBases.size() < cfg_.numProcs) {
      throw std::invalid_argument("traffic: incast enabled but layout lacks victim pages");
    }
    incastNext_ = cfg_.incastPeriodCycles;
  }
  pending_.reserve(4);
}

Addr TrafficModel::tenantAddr(std::uint32_t tenant, std::uint32_t key) const {
  return layout_.tenantBases[tenant] + static_cast<Addr>(key) * cfg_.lineBytes;
}

Addr TrafficModel::sharedAddr(std::uint32_t block) const {
  return layout_.sharedBase + static_cast<Addr>(block) * cfg_.lineBytes;
}

Addr TrafficModel::hotAddr(std::uint32_t block) const {
  return layout_.hotBase + static_cast<Addr>(block) * cfg_.lineBytes;
}

Addr TrafficModel::victimAddr(std::uint32_t victim, std::uint32_t block) const {
  return layout_.victimBases[victim] + static_cast<Addr>(block) * cfg_.lineBytes;
}

bool TrafficModel::inBurst(std::uint64_t cycle) const {
  if (cfg_.burstCycles == 0) return false;
  const std::uint64_t period = cfg_.steadyCycles + cfg_.burstCycles;
  return cycle % period >= cfg_.steadyCycles;
}

std::uint64_t TrafficModel::advanceClock() {
  // Exponential interarrival with the phase's mean (burst windows run at
  // burstMultiplier x the steady arrival rate, i.e. 1/mult the gap).
  // offeredLoad scales the whole process: the saturation-curve x-axis.
  double mean = cfg_.meanGapCycles / cfg_.offeredLoad;
  if (inBurst(clock_)) mean /= cfg_.burstMultiplier;
  const std::uint64_t gap =
      static_cast<std::uint64_t>(-mean * std::log1p(-rng_.uniform())) + 1;
  // Charge the gap to the phases it actually spans: occupancy denominators
  // need exact per-phase elapsed time, and a gap can straddle a boundary.
  const std::uint64_t period = cfg_.steadyCycles + cfg_.burstCycles;
  std::uint64_t pos = clock_ % period;
  for (std::uint64_t remaining = gap; remaining > 0;) {
    const bool burst = pos >= cfg_.steadyCycles;
    const std::uint64_t phaseEnd = burst ? period : cfg_.steadyCycles;
    const std::uint64_t step = std::min(remaining, phaseEnd - pos);
    (burst ? burstElapsed_ : steadyElapsed_) += step;
    pos = (pos + step) % period;
    remaining -= step;
  }
  clock_ += gap;
  return clock_;
}

std::uint64_t TrafficModel::driftEpoch() const {
  return cfg_.migrationPeriodRefs == 0 ? 0 : emitted_ / cfg_.migrationPeriodRefs;
}

std::uint32_t TrafficModel::pickTenant() {
  // The Zipf rank ladder rotates across tenants each drift epoch: the hot
  // tenant moves, modeling load shifting between customers over the day.
  const auto rank = static_cast<std::uint32_t>(zipf_.tenant.sample(rng_));
  return static_cast<std::uint32_t>((rank + driftEpoch()) % cfg_.tenants);
}

std::uint32_t TrafficModel::pickKey(std::uint32_t tenant) {
  // Rotate the rank ladder by a large co-primish slice per epoch (hot keys
  // migrate within the tenant) and by a per-tenant offset (tenants do not
  // share a hot-rank layout even when their arenas are symmetric).
  const auto rank = static_cast<std::uint64_t>(zipf_.key.sample(rng_));
  const std::uint64_t slice = cfg_.keysPerTenant / 5 + 1;
  return static_cast<std::uint32_t>(
      (rank + driftEpoch() * slice + std::uint64_t{tenant} * 7919) % cfg_.keysPerTenant);
}

void TrafficModel::rememberKey(NodeId pid, Addr addr, std::uint32_t tenant) {
  std::vector<RecentEntry>& ring = recent_[pid];
  if (ring.size() < cfg_.localityWindow) {
    ring.push_back({addr, tenant});
    recentHead_[pid] = static_cast<std::uint32_t>(ring.size() % cfg_.localityWindow);
    return;
  }
  ring[recentHead_[pid]] = {addr, tenant};
  recentHead_[pid] = (recentHead_[pid] + 1) % cfg_.localityWindow;
}

void TrafficModel::synthesizeStep() {
  pending_.clear();
  pendingIdx_ = 0;
  const auto pid = cfg_.pinnedPid >= 0 ? static_cast<NodeId>(cfg_.pinnedPid)
                                       : static_cast<NodeId>(rng_.below(cfg_.numProcs));

  // Incast batches fire on absolute deadlines of the arrival clock, so every
  // node's stream (same period, clocks advancing at the same nominal rate)
  // bursts at the same victim near-simultaneously — a barrier-style fan-in.
  if (incastNext_ != 0 && clock_ >= incastNext_) {
    const auto victim = static_cast<std::uint32_t>(incastBatch_ % cfg_.numProcs);
    const std::uint32_t span =
        std::max(1u, std::min(cfg_.incastBatchRefs, cfg_.pageBytes / cfg_.lineBytes));
    const bool burst = inBurst(incastNext_);
    const std::uint32_t tenant = pickTenant();
    for (std::uint32_t i = 0; i < cfg_.incastBatchRefs; ++i) {
      pending_.push_back(
          {{pid, victimAddr(victim, i % span), false}, tenant, incastNext_, burst});
    }
    incastNext_ += cfg_.incastPeriodCycles;
    ++incastBatch_;
    return;
  }

  const std::uint64_t arrival = advanceClock();
  const bool burst = inBurst(arrival);

  // Hotspot steps behave like sharing-intensive steps but on the single hot
  // page: read the block from its previous writer (c2c), then update it.
  if (cfg_.hotFrac > 0.0 && rng_.chance(cfg_.hotFrac)) {
    const auto block = static_cast<std::uint32_t>(rng_.below(cfg_.hotBlocks));
    NodeId actor = pid;
    if (cfg_.pinnedPid < 0 && hotOwner_[block] == actor) actor = (actor + 1) % cfg_.numProcs;
    const std::uint32_t tenant = pickTenant();
    pending_.push_back({{actor, hotAddr(block), false}, tenant, arrival, burst});
    pending_.push_back({{actor, hotAddr(block), true}, tenant, arrival, burst});
    hotOwner_[block] = actor;
    return;
  }

  if (rng_.chance(cfg_.sharedFrac)) {
    // Sharing-intensive step (Durbhakula): read the shared block — a c2c
    // transfer from its previous writer — then update it, handing dirty
    // ownership to this node. Prefer a non-owner so the block keeps moving
    // (on a pinned stream the handoff happens across node streams instead:
    // every node's model touches the same shared segment).
    auto block = static_cast<std::uint32_t>(zipf_.shared.sample(rng_));
    NodeId actor = pid;
    if (cfg_.pinnedPid < 0 && sharedOwner_[block] == actor) actor = (actor + 1) % cfg_.numProcs;
    // Shared traffic is attributed to the tenant that issued it.
    const std::uint32_t tenant = pickTenant();
    pending_.push_back({{actor, sharedAddr(block), false}, tenant, arrival, burst});
    pending_.push_back({{actor, sharedAddr(block), true}, tenant, arrival, burst});
    sharedOwner_[block] = actor;
    return;
  }

  // Jain-style temporal locality: with localityFrac, re-reference a block
  // from this node's recent window at a geometrically distributed stack
  // distance (distance 0 = most recent, halving mass per step back).
  if (!recent_[pid].empty() && rng_.chance(cfg_.localityFrac)) {
    const std::vector<RecentEntry>& ring = recent_[pid];
    std::uint32_t dist = 0;
    while (dist + 1 < ring.size() && rng_.chance(0.5)) ++dist;
    const std::uint32_t head = recentHead_[pid];
    const auto size = static_cast<std::uint32_t>(ring.size());
    const RecentEntry& e = ring[(head + size - 1 - dist) % size];
    pending_.push_back({{pid, e.addr, rng_.chance(cfg_.writeFrac)}, e.tenant, arrival, burst});
    return;
  }

  const std::uint32_t tenant = pickTenant();
  const std::uint32_t key = pickKey(tenant);
  const Addr addr = tenantAddr(tenant, key);
  rememberKey(pid, addr, tenant);
  pending_.push_back({{pid, addr, rng_.chance(cfg_.writeFrac)}, tenant, arrival, burst});
}

bool TrafficModel::nextRef(TrafficRef& out) {
  if (emitted_ >= cfg_.refs) return false;
  while (pendingIdx_ >= pending_.size()) synthesizeStep();
  out = pending_[pendingIdx_++];
  ++emitted_;
  return true;
}

bool TrafficModel::next(TraceRecord& out) {
  TrafficRef r;
  if (!nextRef(r)) return false;
  out = r.rec;
  return true;
}

}  // namespace dresar

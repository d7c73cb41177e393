// Multi-tenant OLTP/KV traffic models (ROADMAP "production-scale traffic
// scenarios"). A TrafficModel is a RefStream that synthesizes the reference
// stream of a consolidated commercial machine — many tenants, each with its
// own Zipf-skewed key space, served by stateless frontends on every node —
// without materializing a single record, so "millions of users" (billions of
// references) costs O(tenant footprint) memory.
//
// Ingredients, each behind a TrafficConfig knob:
//   * Per-tenant key popularity: Zipf(skew) over keysPerTenant blocks, with
//     tenant load itself Zipf(tenantSkew)-distributed (a few hot tenants).
//   * Arrival process: an exponential-interarrival clock modulated by a
//     diurnal square wave (steadyCycles of 1x load, then burstCycles at
//     burstMultiplier x) — the MMPP-style on/off process whose burst windows
//     the tail metrics report on.
//   * Mix: writeFrac (read-mostly vs write-heavy; see TrafficConfig::applyMix).
//   * Hot-key migration: every migrationPeriodRefs references the Zipf rank
//     ladder rotates to a different slice of each tenant's key space AND the
//     hot-tenant ranking rotates across tenants, so yesterday's hot set goes
//     cold (cache/switch-directory churn the fixed TPC streams never show).
//   * Sharing-intensive accesses per Durbhakula (PAPERS.md): sharedFrac of
//     steps are migratory read+update pairs on a cross-tenant shared segment,
//     handing dirty ownership between nodes — the c2c traffic that makes
//     switch directories pay off.
//   * Jain-style address locality (DEC-TR-592, PAPERS.md): localityFrac of
//     key picks re-reference a recently-touched block, drawn from a per-node
//     LRU window with geometrically decaying stack distance.
//
// RNG stream discipline (see DESIGN.md): one SplitMix64 stream per model
// instance, seeded from (cfg.seed, cfg.streamId). The global stream
// (streamId = 0) drives trace-driven runs; the event-driven workload gives
// node p the per-node stream (streamId = p + 1), so per-node streams are
// mutually independent and every run is reproducible from cfg alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "trace/ref_stream.h"

namespace dresar {

struct TrafficConfig;

/// Where the synthesized blocks live. The default places tenant arenas and
/// the shared segment in fixed, disjoint high regions (trace-driven runs);
/// the event-driven workload substitutes AddressSpace allocations.
struct TrafficLayout {
  std::vector<Addr> tenantBases;  ///< one arena base per tenant
  Addr sharedBase = 0;
  /// One page homed at cfg.hotNode (hotspot profile); 0 = absent.
  Addr hotBase = 0;
  /// One page homed at each node (incast victims); empty = absent.
  std::vector<Addr> victimBases;

  /// Disjoint fixed regions, page-interleaved across homes like the TPC
  /// generators' arenas (tpc_gen.cpp region bases).
  static TrafficLayout fixed(std::uint32_t tenants);
  /// fixed() plus hot/victim pages placed by cfg.pageBytes/numProcs
  /// arithmetic so their round-robin homes land where the profile wants.
  static TrafficLayout fixedFor(const TrafficConfig& cfg);
};

struct TrafficConfig {
  std::string name = "oltp";      ///< profile label ("oltp" / "kv")
  std::uint64_t refs = 1'000'000;
  std::uint32_t numProcs = 16;
  std::uint32_t lineBytes = 32;
  // Tenancy.
  std::uint32_t tenants = 4;
  std::uint32_t keysPerTenant = 20'000;  ///< footprint, in blocks
  double skew = 0.9;        ///< Zipf exponent over each tenant's keys
  double tenantSkew = 0.6;  ///< Zipf exponent over tenant load
  // Mix.
  double writeFrac = 0.1;   ///< probability a plain access is a write
  // Sharing (Durbhakula) — migratory read+update pairs on a shared segment.
  double sharedFrac = 0.05;
  std::uint32_t sharedBlocks = 4'000;
  double sharedSkew = 0.5;
  // Locality (Jain) — re-reference a recently-touched block.
  double localityFrac = 0.2;
  std::uint32_t localityWindow = 16;  ///< per-node LRU window, in blocks
  // Arrival process (cycles of the model's arrival clock).
  std::uint32_t meanGapCycles = 40;   ///< mean interarrival, steady phase
  double burstMultiplier = 1.0;       ///< burst-phase load boost (1 = none)
  std::uint64_t steadyCycles = 80'000;  ///< steady window per diurnal period
  std::uint64_t burstCycles = 20'000;   ///< burst window per diurnal period
  // Hot-key migration; 0 disables drift.
  std::uint64_t migrationPeriodRefs = 0;
  // Hotspot (congestion lab): hotFrac of steps are migratory read+update
  // pairs on a single page homed at hotNode, so every request leg converges
  // on one home memory and the c2c replies concentrate above it — the
  // traffic pattern adaptive turnaround routing exists for. 0 disables.
  double hotFrac = 0.0;
  std::uint32_t hotNode = 0;
  std::uint32_t hotBlocks = 64;  ///< hot-set size; must fit one page
  // Incast (congestion lab): every incastPeriodCycles of the arrival clock,
  // each node's stream issues a synchronized batch of incastBatchRefs reads
  // into one rotating victim's page — fan-in barrier bursts. 0 disables.
  std::uint32_t incastPeriodCycles = 0;
  std::uint32_t incastBatchRefs = 0;
  /// Offered-load scale: arrival rate multiplier (interarrival gaps divide
  /// by this), the x-axis of saturation-throughput curves. 1.0 = profile
  /// nominal and byte-identical to pre-knob output.
  double offeredLoad = 1.0;
  /// Round-robin interleaving grain, used to place hot/victim pages. Must
  /// match the run's SystemConfig::pageBytes for homing to be real.
  std::uint32_t pageBytes = 4096;
  // Seeding (see RNG stream discipline above).
  std::uint64_t seed = 0x7ea'7a991c;
  std::uint32_t streamId = 0;  ///< 0 = global stream; p+1 = node p's stream
  /// -1 multiplexes all processors onto one stream (trace-driven global
  /// stream); >= 0 pins every emitted reference to that node (event-driven
  /// per-node streams, where each node pulls its own model).
  std::int32_t pinnedPid = -1;

  /// OLTP profile: row reads/updates, moderate write fraction, hot rows
  /// migrating between frontends, daily burst windows.
  static TrafficConfig oltp(std::uint64_t refs);
  /// KV-cache profile: larger, colder key space, read-dominated, stronger
  /// key skew, less cross-tenant sharing.
  static TrafficConfig kv(std::uint64_t refs);
  /// Hotspot congestion profile: OLTP base with half the steps hammering
  /// one hot page homed at node 0 (see hotFrac above).
  static TrafficConfig hotspot(std::uint64_t refs);
  /// Incast congestion profile: OLTP base plus periodic synchronized
  /// fan-in bursts at a rotating victim (see incastPeriodCycles above).
  static TrafficConfig incast(std::uint64_t refs);
  /// Profile by registry name ("oltp" / "kv" / "hotspot" / "incast");
  /// throws on unknown names.
  static TrafficConfig byName(const std::string& name, std::uint64_t refs);

  /// Apply a mix cell: "readmostly" keeps the profile's write fraction,
  /// "writeheavy" raises it to 0.4. Throws on unknown names.
  void applyMix(const std::string& mix);

  /// Collect a description of every violated invariant; empty = valid.
  [[nodiscard]] std::vector<std::string> validationErrors() const;
  /// Throws std::invalid_argument listing ALL violations at once.
  void validate() const;
};

/// True for names the traffic registry knows ("oltp", "kv").
[[nodiscard]] bool isTrafficWorkload(const std::string& name);
/// True for valid mix cells ("readmostly", "writeheavy").
[[nodiscard]] bool isTrafficMix(const std::string& mix);

/// One synthesized reference plus the metadata the tail metrics key on.
struct TrafficRef {
  TraceRecord rec;
  std::uint32_t tenant = 0;
  std::uint64_t arrivalCycle = 0;
  bool burst = false;  ///< arrival fell inside a burst window
};

/// The Zipf samplers a TrafficModel draws from — tenant load, keys within a
/// tenant, shared-segment blocks — built from a config's (n, s) pairs.
/// Copies share the CDF tables read-only, so the per-node models of one
/// workload (which differ only in stream id and pinned pid) build them once.
struct TrafficSamplers {
  explicit TrafficSamplers(const TrafficConfig& cfg);
  ZipfSampler tenant;
  ZipfSampler key;
  ZipfSampler shared;
};

class TrafficModel final : public RefStream {
 public:
  explicit TrafficModel(const TrafficConfig& cfg);
  TrafficModel(const TrafficConfig& cfg, TrafficLayout layout);
  /// Draw from prebuilt `samplers`, which must have been built from a
  /// config with cfg's Zipf sizes and exponents (std::invalid_argument
  /// otherwise).
  TrafficModel(const TrafficConfig& cfg, TrafficLayout layout, const TrafficSamplers& samplers);

  /// Full-fidelity pull: record + tenant/arrival/phase metadata.
  bool nextRef(TrafficRef& out);
  /// RefStream: the record alone.
  bool next(TraceRecord& out) override;

  [[nodiscard]] const TrafficConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  /// Arrival-clock cycles elapsed so far, split by phase (burst-window
  /// occupancy denominators).
  [[nodiscard]] std::uint64_t burstCyclesElapsed() const { return burstElapsed_; }
  [[nodiscard]] std::uint64_t steadyCyclesElapsed() const { return steadyElapsed_; }

  /// Address helpers (tests reason about regions through these).
  [[nodiscard]] Addr tenantAddr(std::uint32_t tenant, std::uint32_t key) const;
  [[nodiscard]] Addr sharedAddr(std::uint32_t block) const;
  [[nodiscard]] Addr hotAddr(std::uint32_t block) const;
  [[nodiscard]] Addr victimAddr(std::uint32_t victim, std::uint32_t block) const;

 private:
  void synthesizeStep();
  [[nodiscard]] bool inBurst(std::uint64_t cycle) const;
  /// Advance the arrival clock by one interarrival gap and return the new
  /// arrival instant, accumulating per-phase elapsed cycles.
  std::uint64_t advanceClock();
  /// Drift epoch at the current emission count (0 when migration disabled).
  [[nodiscard]] std::uint64_t driftEpoch() const;
  std::uint32_t pickTenant();
  std::uint32_t pickKey(std::uint32_t tenant);
  void rememberKey(NodeId pid, Addr addr, std::uint32_t tenant);

  /// One slot of a per-node locality window (tenant kept so re-references
  /// stay attributed to the right tenant's counters).
  struct RecentEntry {
    Addr addr = 0;
    std::uint32_t tenant = 0;
  };

  TrafficConfig cfg_;
  TrafficLayout layout_;
  Rng rng_;
  TrafficSamplers zipf_;
  std::vector<NodeId> sharedOwner_;  ///< last writer per shared block
  std::vector<NodeId> hotOwner_;     ///< last writer per hot block
  std::vector<std::vector<RecentEntry>> recent_;  ///< per-node LRU rings
  std::vector<std::uint32_t> recentHead_;
  std::uint64_t emitted_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t incastNext_ = 0;   ///< next batch deadline (0 = disabled)
  std::uint64_t incastBatch_ = 0;  ///< batches emitted so far (victim rotor)
  std::uint64_t burstElapsed_ = 0;
  std::uint64_t steadyElapsed_ = 0;
  std::vector<TrafficRef> pending_;  ///< refs queued by the current step
  std::size_t pendingIdx_ = 0;
};

}  // namespace dresar

// One cell of a sweep's job matrix: which workload, which switch-directory
// configuration, which seed replica. Jobs are fully self-describing so a
// worker thread can execute one with no shared state beyond the spec itself.
#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <string>

#include "common/config.h"
#include "fault/fault_plan.h"
#include "workloads/workload.h"

namespace dresar::harness {

enum class JobKind : std::uint8_t {
  Scientific,  ///< execution-driven kernel on the cycle-level System
  Trace,       ///< trace-driven commercial workload (synthetic TPC stream)
  Traffic,     ///< trace-driven multi-tenant traffic model ("oltp"/"kv")
};

/// The kind's name as records, job-store keys and `--list` spell it.
[[nodiscard]] inline const char* kindName(JobKind k) {
  switch (k) {
    case JobKind::Scientific: return "scientific";
    case JobKind::Trace: return "trace";
    case JobKind::Traffic: return "traffic";
  }
  return "scientific";
}

struct JobSpec {
  JobKind kind = JobKind::Scientific;
  /// Workload key: "fft"/"tc"/"sor"/"fwa"/"gauss" (scientific),
  /// "tpcc"/"tpcd" (trace) or "oltp"/"kv" (traffic).
  std::string app;
  std::uint32_t sdEntries = 0;  ///< 0 = Base system (no switch directories)
  std::uint32_t assoc = 4;
  std::uint32_t pendingBuffer = 16;
  /// Switch-directory policy cell (see switchdir/sd_policy.h). The defaults
  /// are the paper's fixed organization; policy sweeps cross these axes.
  std::string sdReplacement = "lru";
  std::string sdArbitration = "fifo";
  /// System size; the BMIN depth is derived from it (16 = the paper's
  /// reference machine, deeper networks at 32/64/128).
  std::uint32_t numNodes = 16;
  /// Replica index, 1-based. Replica 1 reproduces the historical default
  /// stream; replica k>1 perturbs the trace generator's seed. Scientific
  /// kernels are RNG-free, so their replicas are bit-identical by design —
  /// a per-config stddev > 0 in the aggregate is itself a determinism bug.
  std::uint64_t seed = 1;
  WorkloadScale scale;            ///< scientific problem sizes
  std::uint64_t traceRefs = 1'000'000;  ///< stream length (trace/traffic jobs)
  bool traceTxns = false;         ///< record per-transaction latency events
  /// Traffic-model overrides (traffic jobs only). Sentinel defaults mean
  /// "keep the profile's value" — oltp and kv carry different baseline
  /// tenancy/skew, so 0 / -1 / 0 / "readmostly" leaves each profile intact
  /// and keeps default jobs tag-identical across the axes.
  std::uint32_t trafficTenants = 0;          ///< 0 = profile default
  double trafficSkew = -1.0;                 ///< < 0 = profile default
  double trafficBurst = 0.0;                 ///< 0 = profile default (1 = flat)
  std::string trafficMix = "readmostly";     ///< readmostly | writeheavy
  /// Fault-injection plan (scientific jobs only). Default-constructed plans
  /// are disabled and leave the run byte-identical to a fault-free one.
  FaultPlan fault{};
  /// Routing policy for the interconnect ("lca" = deterministic baseline,
  /// "adaptive" = credit/occupancy-aware turnaround choice).
  std::string routing = "lca";
  /// Offered-load multiplier for the congestion traffic profiles
  /// ("hotspot"/"incast"): scales the arrival rate, the x-axis of a
  /// saturation curve. Sentinel 0 = profile nominal rate (no tag).
  double offeredLoad = 0.0;
  /// Route through the flit-level wormhole network instead of the
  /// message-level one (per-switch congestion telemetry).
  bool flitLevel = false;
  /// Ablation knobs (execution-driven jobs only). Defaults are the paper's
  /// Table 2 machine and add no config-tag suffix.
  bool snoopInval = SwitchDirConfig{}.snoopInvalidations;
  std::uint32_t switchCacheEntries = SwitchCacheConfig{}.entries;  ///< 0 = no switch cache
  std::uint32_t coreDelay = NetworkConfig{}.coreDelay;
  std::uint32_t linkCycles = NetworkConfig{}.linkCyclesPerFlit;
  std::uint32_t bufferFlits = NetworkConfig{}.bufferFlits;  ///< flit-level jobs only

  /// Display name in the paper's style ("FFT", "TPC-C", "OLTP", ...).
  [[nodiscard]] std::string displayApp() const {
    if (kind == JobKind::Trace) return app == "tpcd" ? "TPC-D" : "TPC-C";
    std::string up = app;
    for (char& c : up) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return up;
  }

  /// Short config tag; matches the bench convention ("base", "sd-512") and
  /// appends one suffix per axis off its default, in the sweep axis table's
  /// order (harness/sweep_spec.cpp), so default sweeps serialize exactly as
  /// the historical bench output did. Tags key the job store: the order and
  /// spelling of every suffix is part of the store format.
  [[nodiscard]] std::string configTag() const;

  /// Shortest decimal that reads back as `r` ("0.02", not "0.020000"), so
  /// two distinct cells never share a tag.
  [[nodiscard]] static std::string rateTag(double r) {
    char buf[32];  // a double's longest shortest form is 24 characters
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, r).ptr);
  }
};

}  // namespace dresar::harness

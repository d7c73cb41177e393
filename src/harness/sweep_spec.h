// Declarative sweep specifications. A spec file is a flat `key = value`
// document (''#'' comments, blank lines ignored); multi-valued keys take
// comma-separated lists and the expansion is the full cross product:
//
//   # sweeps/paper_all.spec
//   name = paper_all
//   workloads = fft, tc, sor, fwa, gauss, tpcc, tpcd
//   entries = 0, 256, 512, 1024, 2048    # 0 = Base system
//   assoc = 4
//   pending_buffer = 16
//   nodes = 16, 32, 64, 128              # system sizes (BMIN depth derived)
//   sd_policy = lru, random-phase        # replacement[-arbitration] cells
//   seeds = 1                            # replicas per config cell
//   scale = paper                        # tiny | default | paper
//   trace_refs = 16000000
//
// Fault-injection campaigns (execution-driven workloads only) add:
//
//   fault_drop_rate = 0, 0.02            # per-eligible-message drop prob.
//   fault_delay_rate = 0.02              # per-eligible-message delay prob.
//   fault_sd_loss_rate = 0.1             # switch-dir entry loss per hit
//   fault_seed = 7                       # injector RNG base seed
//   fault_link_stall = 0,1,1000,500      # stage,port,startCycle,lenCycles
//
// Traffic campaigns (workloads oltp / kv, the multi-tenant traffic models)
// add axes over the model's tenancy and load shape:
//
//   tenants = 2, 4, 8                    # tenant count per model
//   skew = 0.6, 0.9, 1.2                 # per-tenant key Zipf exponent
//   burst = 1, 4, 8                      # burst-window load multiplier
//   mix = readmostly, writeheavy         # write-fraction cell
//
// Congestion campaigns (execution-driven workloads; offered_load additionally
// requires the hotspot/incast congestion profiles) add:
//
//   routing = lca, adaptive              # interconnect routing policy
//   offered_load = 0.5, 1, 2, 4          # arrival-rate multiplier (x-axis)
//   flit_level = 0, 1                    # message-level vs wormhole network
//
// Ablation studies (execution-driven workloads) vary one machine parameter
// each:
//
//   snoop_inval = 0, 1                   # switch dirs snoop Invalidations
//   switch_cache = 0, 1024               # switch-cache entries (0 = none)
//   core_delay = 2, 4, 8                 # crossbar core delay, cycles
//   link_cycles = 2, 4, 8                # link cycles per flit
//   buffer_flits = 1, 4, 16              # flit buffers per VC (flit_level = 1)
//
// Every multi-valued key is an axis, declared once in the axis table
// (sweep_spec.cpp): its parser, default, JobSpec binding, config-tag suffix,
// document-option rule and the workloads it applies to. expand() is an
// odometer over that table (workload outermost, seed innermost) that lists
// each (workload, config tag, seed) once: axes that only mark switch-directory
// tags (assoc, pending_buffer, sd_policy, snoop_inval) leave one "base" job
// per workload however many cells they have. Unknown keys and malformed
// values are hard errors with the line number, and every expanded cell is
// validated against the simulator config it would run with, so a typo'd
// sweep fails before burning hours of simulation.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <utility>
#include <vector>

#include "harness/job.h"

namespace dresar::harness {

/// One point on the sd_policy axis: a replacement policy plus an arbitration
/// policy. Spec syntax is "repl-arb" ("random-phase") or a bare replacement
/// name ("fifo"), which keeps the default fifo arbitration.
struct SdPolicyChoice {
  std::string replacement = "lru";
  std::string arbitration = "fifo";
  bool operator==(const SdPolicyChoice&) const = default;

  /// Canonical spelling ("lru-fifo") used in document options and errors.
  [[nodiscard]] std::string label() const { return replacement + "-" + arbitration; }
};

struct SweepSpec {
  std::string name = "sweep";
  std::vector<std::string> workloads;  ///< fft/tc/sor/fwa/gauss/tpcc/tpcd/oltp/kv
  std::vector<std::uint32_t> entries = {0, 256, 512, 1024, 2048};
  std::vector<std::uint32_t> assoc = {4};
  std::vector<std::uint32_t> pendingBuffer = {16};
  /// System sizes (the nodes axis of the scaling study). The BMIN depth is
  /// derived per size; every value is validated against the radix at parse
  /// time.
  std::vector<std::uint32_t> nodes = {16};
  /// Switch-directory policy cells (replacement x arbitration, see the
  /// sd_policy key). The default single cell is the paper's fixed LRU/FIFO
  /// organization and keeps the sweep byte-identical to pre-policy output.
  std::vector<SdPolicyChoice> sdPolicy = {{}};
  std::uint64_t seeds = 1;                       ///< replicas per config cell
  std::string scale = "default";                 ///< tiny | default | paper
  std::uint64_t traceRefs = 1'000'000;
  /// Fault axes; {0} / inactive keep the sweep fault-free and byte-identical
  /// to the pre-fault output. Replica k>1 of a faulted cell runs with
  /// injector seed faultSeed + (k-1).
  std::vector<double> faultDropRate = {0.0};
  std::vector<double> faultDelayRate = {0.0};
  std::vector<double> faultSdLossRate = {0.0};
  std::uint64_t faultSeed = 1;
  LinkStallSpec faultLinkStall{};
  /// Traffic axes (traffic workloads only). The sentinel single-cell
  /// defaults mean "profile default" and keep non-traffic sweeps exactly as
  /// before; any explicit value restricts the sweep to oltp/kv workloads.
  std::vector<std::uint32_t> trafficTenants = {0};
  std::vector<double> trafficSkew = {-1.0};
  std::vector<double> trafficBurst = {0.0};
  std::vector<std::string> trafficMix = {"readmostly"};
  /// Congestion axes (execution-driven workloads only). Defaults are the
  /// deterministic baseline and keep every existing sweep byte-identical:
  /// routing "lca", offered_load sentinel 0 (profile nominal rate; only the
  /// hotspot/incast profiles accept other values), message-level network.
  std::vector<std::string> routing = {"lca"};
  std::vector<double> offeredLoad = {0.0};
  std::vector<std::uint32_t> flitLevel = {0};
  /// Ablation axes (execution-driven workloads only), each one config field
  /// at its Table 2 default: invalidation snooping in the switch directories
  /// (0/1), switch-cache entries (0 = none), crossbar core delay, link cycles
  /// per flit, and flit-buffer depth (flit-level cells only).
  std::vector<std::uint32_t> snoopInval = {0};
  std::vector<std::uint32_t> switchCache = {JobSpec{}.switchCacheEntries};
  std::vector<std::uint32_t> coreDelay = {JobSpec{}.coreDelay};
  std::vector<std::uint32_t> linkCycles = {JobSpec{}.linkCycles};
  std::vector<std::uint32_t> bufferFlits = {JobSpec{}.bufferFlits};

  /// True when any fault axis can produce an injecting run.
  [[nodiscard]] bool injectsFaults() const;

  /// Parse from a stream / file. Throws std::runtime_error with
  /// "<source>:<line>: ..." context on any malformed or unknown input, and
  /// "<source>: ..." naming the cell when an expanded cell's simulator
  /// config fails validation.
  static SweepSpec parse(std::istream& in, const std::string& source = "<spec>");
  static SweepSpec parseFile(const std::string& path);

  /// The full job matrix, in deterministic spec order: workload-major, then
  /// the axis table in config-tag order, seed innermost.
  [[nodiscard]] std::vector<JobSpec> expand() const;

  /// The result document's "options": scale, seeds, trace_refs, then every
  /// recorded axis that is off its default, in axis-table order.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> documentOptions() const;

  /// Problem-size override used by `dresar-sweep --quick` / `--paper`.
  void overrideScale(const std::string& s);

  /// The scientific problem sizes `scale` names.
  [[nodiscard]] WorkloadScale workloadScale() const;
};

/// How a workload runs: "tpcc"/"tpcd" are trace-driven, "oltp"/"kv" traffic
/// models, every other workload key is execution-driven.
[[nodiscard]] JobKind workloadKind(const std::string& workload);

}  // namespace dresar::harness

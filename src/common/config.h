// Simulation parameter sets. SystemConfig mirrors the paper's Table 2
// (execution-driven runs); TraceConfig mirrors Table 3 (trace-driven runs).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"
#include "fault/fault_plan.h"

namespace dresar {

/// Switch-directory (DRESAR) parameters. `entries == 0` disables the switch
/// directories entirely, yielding the paper's "Base" system.
struct SwitchDirConfig {
  std::uint32_t entries = 1024;   ///< total entries per switch (256..2048 in the paper)
  std::uint32_t associativity = 4;
  std::uint32_t snoopPortsPerCycle = 2;  ///< 2-way multiported SRAM (paper 4.2)
  std::uint32_t pendingBufferEntries = 16;  ///< transient-state buffer (paper 4.3)
  bool usePendingBuffer = true;
  /// Optional extension (ablation): invalidate matching entries when
  /// Invalidation messages traverse a switch, reducing stale-entry retries.
  bool snoopInvalidations = false;
  /// Cap on the exponential retry backoff a NAKed requester applies. The
  /// first re-issue waits SystemConfig::retryBackoffCycles; each further
  /// retry of the same transaction doubles the wait up to this bound.
  std::uint32_t retryBackoffMaxCycles = 768;
  /// Victim selection for the per-switch tag arrays: "lru" (the paper's
  /// fixed default), "fifo", or "random" (see switchdir/sd_policy.h).
  std::string replacementPolicy = "lru";
  /// Directory port arbitration: "fifo" (arrival order, the paper's model)
  /// or "phase" (phase-priority per Li & An).
  std::string arbitrationPolicy = "fifo";

  [[nodiscard]] bool enabled() const { return entries > 0; }
};

/// Switch *cache* parameters (extension, see paper conclusion + HPCA-5 [5]):
/// data caching of clean blocks at switches, combinable with the switch
/// directory. `entries == 0` (default) disables it.
struct SwitchCacheConfig {
  std::uint32_t entries = 0;
  std::uint32_t associativity = 4;
  std::uint32_t snoopPortsPerCycle = 2;
  /// Same policy seam as SwitchDirConfig (the switch cache reuses the switch
  /// tag array and port arbitration).
  std::string replacementPolicy = "lru";
  std::string arbitrationPolicy = "fifo";

  [[nodiscard]] bool enabled() const { return entries > 0; }
};

/// Largest supported system. NodeMask (sharer/ack bitmaps) is 128 bits wide,
/// so directories can track a full map for up to 128 nodes.
inline constexpr std::uint32_t kMaxNodes = 128;

/// Stage count k of the bidirectional MIN that connects `numNodes` endpoints
/// with radix-`switchRadix` switches: the smallest k >= 2 whose (radix/2)-ary
/// digit ladder covers numNodes/(radix/2) switches per stage. Returns 0 when
/// the combination does not tile (supported sizes are m*(radix/2)^(k-1) for
/// 1 <= m <= radix/2). The paper's reference machine (16 nodes, radix 8)
/// derives k = 2.
[[nodiscard]] std::uint32_t butterflyStages(std::uint32_t numNodes,
                                            std::uint32_t switchRadix);

/// Interconnect parameters (paper Table 2, "Network" column). The reference
/// system is a 2-stage bidirectional MIN of 8x8 switches for 16 nodes;
/// larger node counts derive deeper networks (see stagesFor).
struct NetworkConfig {
  std::uint32_t switchRadix = 8;      ///< ports per switch (4 down + 4 up)
  std::uint32_t coreDelay = 4;        ///< cycles through the crossbar core
  std::uint32_t linkCyclesPerFlit = 4;///< 8-byte flit over 16-bit links
  std::uint32_t flitBytes = 8;
  std::uint32_t virtualChannels = 2;
  std::uint32_t bufferFlits = 4;      ///< input FIFO depth per VC (ablation knob)
  std::uint32_t headerBytes = 8;      ///< one header flit per message
  /// Select the flit-level wormhole model (paper 4.1 fidelity) instead of
  /// the default message-level timing. Slower; identical protocol behaviour.
  bool flitLevel = false;
  /// Turnaround routing policy for paths with a free digit (proc->proc c2c
  /// data, switch-generated traffic): "lca" (the paper's deterministic
  /// baseline) or "adaptive" (credit/occupancy-guided, deterministically
  /// seeded). See interconnect/routing.h.
  std::string routing = "lca";

  /// Derived BMIN depth for a given node count (0 = does not tile).
  [[nodiscard]] std::uint32_t stagesFor(std::uint32_t numNodes) const {
    return butterflyStages(numNodes, switchRadix);
  }

  /// Network-local invariant violations (routing policy name, VC count vs
  /// the flit model's 8-bit VC field, ...). SystemConfig::validationErrors()
  /// folds these in; empty = valid.
  [[nodiscard]] std::vector<std::string> validationErrors() const;
};

/// Transaction tracing & latency attribution. Disabled by default: no
/// component is handed a tracer, so instrumented paths cost one untaken
/// branch and results are bit-identical to an untraced build.
struct TxnTraceConfig {
  bool enabled = false;
  std::uint64_t ringEvents = 1ull << 22;  ///< completed-txn ring capacity, in events
  std::uint32_t maxEventsPerTxn = 512;    ///< per-transaction event cap
};

/// Processor + cache + memory parameters (paper Table 2).
struct SystemConfig {
  /// Named preset for the paper's Table 2 reference machine. The defaults
  /// below ARE Table 2, but benches/examples go through this constructor so
  /// a future parameter change is one edit and call sites say what they mean.
  [[nodiscard]] static SystemConfig paperTable2() { return SystemConfig{}; }

  std::uint32_t numNodes = 16;
  // Processor.
  std::uint32_t issueWidth = 4;       ///< instructions per cycle (in-order)
  // L1 cache.
  std::uint32_t l1Bytes = 16 * 1024;
  std::uint32_t l1Assoc = 2;
  std::uint32_t l1AccessCycles = 1;
  // L2 cache.
  std::uint32_t l2Bytes = 128 * 1024;
  std::uint32_t l2Assoc = 4;
  std::uint32_t l2AccessCycles = 8;
  std::uint32_t lineBytes = 32;
  // Memory.
  std::uint32_t memAccessCycles = 40;
  std::uint32_t memInterleave = 4;    ///< banks per memory module
  // Directory/coherence controller.
  std::uint32_t dirLookupCycles = 40;   ///< slow DRAM directory access
  std::uint32_t dirOccupancyCycles = 12;///< controller busy time per request
  std::uint32_t cacheCtrlOccupancyCycles = 4;
  std::uint32_t writeBufferEntries = 8;
  std::uint32_t mshrEntries = 16;
  std::uint32_t retryBackoffCycles = 24;  ///< re-issue delay after a Retry/NAK
  std::uint32_t maxRetries = 10000;       ///< watchdog against livelock
  // Synchronization.
  std::uint32_t barrierLatencyCycles = 96;  ///< hardware barrier cost
  // Address space.
  std::uint32_t pageBytes = 4096;     ///< round-robin page interleaving grain

  NetworkConfig net;
  SwitchDirConfig switchDir;
  SwitchCacheConfig switchCache;
  TxnTraceConfig txnTrace;
  /// Fault-injection campaign; default-constructed = fault-free (see
  /// fault/fault_plan.h — a disabled plan leaves runs byte-identical).
  FaultPlan fault;

  [[nodiscard]] std::uint32_t lineOffsetBits() const;
  [[nodiscard]] Addr blockOf(Addr a) const { return a & ~static_cast<Addr>(lineBytes - 1); }
  [[nodiscard]] NodeId homeOf(Addr a) const {
    return static_cast<NodeId>((a / pageBytes) % numNodes);
  }

  void dump(std::ostream& os) const;
  /// Collect a description of every violated invariant (power-of-two sizes,
  /// line-vs-way geometry, radix vs node count, fault rates in [0,1], ...).
  /// Empty result = valid configuration.
  [[nodiscard]] std::vector<std::string> validationErrors() const;
  /// Throws std::invalid_argument listing ALL violations (one bullet per
  /// finding), so a misconfiguration is fixed in one round trip.
  void validate() const;
};

/// Trace-driven commercial-workload parameters (paper Table 3).
struct TraceConfig {
  /// Named preset for the paper's Table 3 latencies (see paperTable2()).
  [[nodiscard]] static TraceConfig paperTable3() { return TraceConfig{}; }

  std::uint32_t numNodes = 16;
  std::uint32_t cacheBytes = 2 * 1024 * 1024;
  std::uint32_t cacheAssoc = 4;
  std::uint32_t lineBytes = 32;
  // Fixed service latencies (cycles), from Table 3.
  std::uint32_t cacheAccess = 8;
  std::uint32_t localMemory = 100;
  std::uint32_t ctocLocalHome = 220;
  std::uint32_t remoteMemory = 260;
  std::uint32_t ctocRemoteHome = 320;
  std::uint32_t switchDirHit = 200;
  /// Penalty added when a stale switch-directory entry forces a retry before
  /// the request is serviced at the home (paper handles this with its Retry
  /// message; latency not listed, we charge one extra network round).
  std::uint32_t staleRetryPenalty = 120;
  std::uint32_t pageBytes = 4096;

  SwitchDirConfig switchDir;

  [[nodiscard]] Addr blockOf(Addr a) const { return a & ~static_cast<Addr>(lineBytes - 1); }
  [[nodiscard]] NodeId homeOf(Addr a) const {
    return static_cast<NodeId>((a / pageBytes) % numNodes);
  }

  void dump(std::ostream& os) const;
  /// Collect a description of every violated invariant; empty = valid.
  /// Same all-violations contract as SystemConfig::validationErrors().
  [[nodiscard]] std::vector<std::string> validationErrors() const;
  /// Throws std::invalid_argument listing ALL violations at once.
  void validate() const;
};

}  // namespace dresar

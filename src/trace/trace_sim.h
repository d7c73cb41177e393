// Trace-driven simulator for the commercial workloads (paper Section 5.1,
// Table 3): a single-issue processor per node, one 2MB 4-way set-associative
// cache, the MSI cache protocol, a full-map home directory, constant service
// latencies, and the switch-directory interconnect modeled structurally over
// the same butterfly BMIN (which switches a request path crosses, which
// entries a reply deposits, which a copyback clears).
//
// Transactions complete atomically between records — the sequential
// abstraction the paper adopted "for simplicity and limiting simulation
// execution time". TRANSIENT states therefore never persist; the one
// protocol artifact that survives is the *stale* switch entry (the owner
// lost the line via a path that missed the switch), which costs a retry trip
// before the home services the request, exactly as in the event-driven
// model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "common/zeroed_region.h"
#include "coherence/cache_array.h"
#include "interconnect/topology.h"
#include "switchdir/dir_cache.h"
#include "trace/block_table.h"
#include "trace/ref_stream.h"

namespace dresar {

struct TraceMetrics {
  std::uint64_t refs = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t readHits = 0;
  std::uint64_t readMisses = 0;
  std::uint64_t svcCleanLocal = 0;
  std::uint64_t svcCleanRemote = 0;
  std::uint64_t svcCtoCLocal = 0;   ///< home-serviced c2c, local home
  std::uint64_t svcCtoCRemote = 0;  ///< home-serviced c2c, remote home
  std::uint64_t svcSwitchDir = 0;   ///< re-routed by a switch directory
  std::uint64_t homeCtoC = 0;       ///< c2c transfers the home had to forward
  std::uint64_t sdDeposits = 0;
  std::uint64_t sdStaleRetries = 0;
  double totalReadLatency = 0.0;  ///< Figure 10 numerator (read stall)
  Cycle execTime = 0;             ///< max per-processor accumulated cycles

  [[nodiscard]] std::uint64_t ctoc() const {
    return svcCtoCLocal + svcCtoCRemote + svcSwitchDir;
  }
  [[nodiscard]] double dirtyFraction() const {
    return readMisses == 0 ? 0.0 : static_cast<double>(ctoc()) / readMisses;
  }
  [[nodiscard]] double avgReadLatency() const {
    return reads == 0 ? 0.0 : totalReadLatency / static_cast<double>(reads);
  }
};

/// Per-block miss accounting for Figure 2.
struct BlockStat {
  Addr block = kInvalidAddr;
  std::uint32_t misses = 0;
  std::uint32_t ctocs = 0;
};

class TraceSimulator {
 public:
  explicit TraceSimulator(const TraceConfig& cfg);

  /// Process one trace record; returns the cycles charged to `pid` for it
  /// (the read service latency, or 1 for a release-consistency write), so
  /// streaming drivers can sample per-reference tail latency. Throws
  /// std::out_of_range if `pid` is not a node of this machine (a trace
  /// recorded on a larger one).
  Cycle access(NodeId pid, Addr addr, bool write);
  Cycle access(const TraceRecord& r) { return access(r.pid, r.addr, r.write); }

  /// Drive an entire reference stream through the simulator (calls
  /// finalize()). Works for TPC generators, trace files and traffic models.
  void run(RefStream& gen);

  /// Recompute execTime from the per-processor cycle totals; call after
  /// feeding records via access() directly.
  void finalize();

  [[nodiscard]] const TraceMetrics& metrics() const { return m_; }
  [[nodiscard]] const TraceConfig& config() const { return cfg_; }

  void enableBlockStats() { collectBlocks_ = true; }
  /// Every block that missed at least once, ranked for Figure 2: most
  /// misses first. Ties go in a fixed pseudo-random order (the scrambled
  /// block address), so the ranking depends neither on the table's slot
  /// order nor on where a generator lays out its hot and private regions.
  [[nodiscard]] std::vector<BlockStat> blockStats() const;

  /// Invariant support for tests.
  [[nodiscard]] std::uint64_t switchEntries(SDState s) const;

 private:
  enum class TDir : std::uint8_t { Uncached, Shared, Modified };
  /// 32 bytes: the key sits between the 16-byte-aligned sharer mask and the
  /// small fields, so the entry needs no padding beyond its tail.
  struct DirEntry {
    NodeMask sharers = 0;
    Addr block = kInvalidAddr;
    NodeId owner = kInvalidNode;
    TDir state = TDir::Uncached;
  };
  static_assert(sizeof(DirEntry) == 32, "DirEntry must stay a 32-byte slot");

  [[nodiscard]] NodeId homeOf(Addr block) const { return cfg_.homeOf(block); }

  /// forwardPath(p, m) flattened to flat switch ids, precomputed per
  /// (processor, memory) pair — the hot path walks it on every access.
  [[nodiscard]] std::span<const std::uint32_t> pathOf(NodeId who, NodeId mem) const {
    const std::size_t stages = topo_.numStages();
    return {pathTable_.data() + (std::size_t{who} * cfg_.numNodes + mem) * stages, stages};
  }

  /// Clear this block's entries along `who`'s forward path to the home
  /// (models the copyback/writeback snoop).
  void clearPathEntries(NodeId who, Addr block);
  /// Deposit {MODIFIED, owner} along the home->owner backward path (models
  /// the WriteReply snoop).
  void depositEntries(NodeId owner, Addr block);

  Cycle doRead(NodeId pid, Addr block);
  Cycle doWrite(NodeId pid, Addr block);
  /// Install `block` in pid's cache with `state`, handling dirty victims.
  /// Never inserts into dir_, so callers may hold a DirEntry& across it.
  void fill(NodeId pid, Addr block, CacheState state);

  void noteMiss(Addr block, bool ctoc);

  TraceConfig cfg_;
  Butterfly topo_;
  std::vector<std::uint32_t> pathTable_;    // numNodes^2 x stages, by (proc * numNodes + mem)
  /// Every node's cache tags, one zero-filled huge-page-backed mapping;
  /// declared before the views into it.
  ZeroedRegion tags_;
  std::vector<CacheArray> caches_;          // one per processor, viewing tags_
  std::vector<SwitchDirCache> switchDirs_;  // one per switch (may be empty)
  BlockTable<DirEntry> dir_;
  std::vector<Cycle> procCycles_;
  TraceMetrics m_;
  bool collectBlocks_ = false;
  BlockTable<BlockStat> blocks_;
};

}  // namespace dresar

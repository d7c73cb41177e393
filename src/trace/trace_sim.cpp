#include "trace/trace_sim.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dresar {

namespace {
NodeMask bit(NodeId n) { return nodeBit(n); }
}  // namespace

TraceSimulator::TraceSimulator(const TraceConfig& cfg)
    : cfg_(cfg), topo_(cfg.numNodes, 8), procCycles_(cfg.numNodes, 0) {
  cfg_.validate();
  // Node n's store starts at n * stride lines; the stride rounds up to whole
  // 64-byte host lines, so a 4-way set of 16-byte lines is one host line.
  const std::size_t lines = CacheArray::linesFor(cfg_.cacheBytes, cfg_.cacheAssoc, cfg_.lineBytes);
  constexpr std::size_t kHostLine = 64 / sizeof(CacheLine);
  const std::size_t stride = (lines + kHostLine - 1) / kHostLine * kHostLine;
  tags_ = ZeroedRegion(cfg_.numNodes * stride * sizeof(CacheLine));
  const std::span<CacheLine> all = tags_.first<CacheLine>(cfg_.numNodes * stride);
  caches_.reserve(cfg_.numNodes);
  for (NodeId n = 0; n < cfg_.numNodes; ++n) {
    caches_.emplace_back(all.subspan(n * stride, lines), cfg_.cacheBytes, cfg_.cacheAssoc,
                         cfg_.lineBytes);
  }
  if (cfg_.switchDir.enabled()) {
    switchDirs_.reserve(topo_.totalSwitches());
    for (std::uint32_t i = 0; i < topo_.totalSwitches(); ++i) {
      switchDirs_.emplace_back(cfg_.switchDir.entries, cfg_.switchDir.associativity,
                               cfg_.lineBytes, cfg_.switchDir.replacementPolicy);
    }
  }
  pathTable_.reserve(static_cast<std::size_t>(cfg_.numNodes) * cfg_.numNodes *
                     topo_.numStages());
  for (NodeId p = 0; p < cfg_.numNodes; ++p) {
    for (NodeId m = 0; m < cfg_.numNodes; ++m) {
      for (const SwitchId sw : topo_.forwardPath(p, m)) pathTable_.push_back(topo_.flat(sw));
    }
  }
}

void TraceSimulator::clearPathEntries(NodeId who, Addr block) {
  if (switchDirs_.empty()) return;
  for (const std::uint32_t f : pathOf(who, homeOf(block))) {
    SwitchDirCache& c = switchDirs_[f];
    if (SDEntry* e = c.find(block); e != nullptr) c.invalidate(*e);
  }
}

void TraceSimulator::depositEntries(NodeId owner, Addr block) {
  if (switchDirs_.empty()) return;
  for (const std::uint32_t f : pathOf(owner, homeOf(block))) {
    SwitchDirCache& c = switchDirs_[f];
    if (SDEntry* e = c.allocate(block); e != nullptr) {
      e->state = SDState::Modified;
      e->owner = owner;
      ++m_.sdDeposits;
    }
  }
}

void TraceSimulator::noteMiss(Addr block, bool ctoc) {
  if (!collectBlocks_) return;
  BlockStat& b = blocks_.findOrInsert(block);
  ++b.misses;
  if (ctoc) ++b.ctocs;
}

void TraceSimulator::fill(NodeId pid, Addr block, CacheState state) {
  Victim v;
  CacheLine* line = caches_[pid].allocate(block, v);
  if (v.evicted && v.dirty) {
    // WriteBack: memory is made consistent, the directory entry drops to
    // UNCACHED, and the victim's entries on the write-back path are cleared.
    // Every cached block got its entry on the miss that filled it, so this is
    // a find: inserting here could grow dir_ under the caller's DirEntry&.
    DirEntry* d = dir_.find(v.block);
    if (d == nullptr)
      throw std::logic_error("TraceSimulator: evicted block has no directory entry");
    if (d->state == TDir::Modified && d->owner == pid) {
      d->state = TDir::Uncached;
      d->owner = kInvalidNode;
      d->sharers = 0;
    }
    clearPathEntries(pid, v.block);
  }
  line->state = state;
}

Cycle TraceSimulator::doRead(NodeId pid, Addr block) {
  ++m_.reads;
  Cycle lat = cfg_.cacheAccess;
  if (caches_[pid].find(block) != nullptr) {
    ++m_.readHits;
  } else {
    ++m_.readMisses;
    DirEntry& d = dir_.findOrInsert(block);
    const bool localHome = homeOf(block) == pid;
    bool served = false;
    bool wasCtoC = false;

    if (!switchDirs_.empty()) {
      // Snoop the switch directories along the forward path, nearest first.
      for (const std::uint32_t f : pathOf(pid, homeOf(block))) {
        SwitchDirCache& c = switchDirs_[f];
        SDEntry* e = c.find(block);
        if (e == nullptr || e->state != SDState::Modified) continue;
        const bool fresh = d.state == TDir::Modified && d.owner == e->owner && e->owner != pid;
        if (!fresh) {
          // Stale entry: in the event-driven protocol the owner bounces the
          // request with a marked Retry; charge the round trip and fall
          // through to the home.
          c.invalidate(*e);
          ++m_.sdStaleRetries;
          lat += cfg_.staleRetryPenalty;
          continue;
        }
        // Switch-directory hit: the request is sunk and re-routed straight
        // to the owner cache; home DRAM lookup and controller are bypassed.
        const NodeId owner = e->owner;
        if (CacheLine* ol = caches_[owner].find(block); ol != nullptr) ol->state = CacheState::S;
        d.state = TDir::Shared;
        d.sharers = bit(owner) | bit(pid);
        d.owner = kInvalidNode;
        clearPathEntries(owner, block);  // the marked copyback clears entries
        lat += cfg_.switchDirHit;
        ++m_.svcSwitchDir;
        served = true;
        wasCtoC = true;
        break;
      }
    }

    if (!served) {
      switch (d.state) {
        case TDir::Uncached:
        case TDir::Shared:
          d.state = TDir::Shared;
          d.sharers |= bit(pid);
          lat += localHome ? cfg_.localMemory : cfg_.remoteMemory;
          ++(localHome ? m_.svcCleanLocal : m_.svcCleanRemote);
          break;
        case TDir::Modified: {
          // Home-serviced cache-to-cache transfer.
          const NodeId owner = d.owner;
          if (CacheLine* ol = caches_[owner].find(block); ol != nullptr)
            ol->state = CacheState::S;
          d.state = TDir::Shared;
          d.sharers = bit(owner) | bit(pid);
          d.owner = kInvalidNode;
          clearPathEntries(owner, block);  // the copyback clears entries
          lat += localHome ? cfg_.ctocLocalHome : cfg_.ctocRemoteHome;
          ++m_.homeCtoC;
          ++(localHome ? m_.svcCtoCLocal : m_.svcCtoCRemote);
          wasCtoC = true;
          break;
        }
      }
    }
    fill(pid, block, CacheState::S);
    noteMiss(block, wasCtoC);
  }
  m_.totalReadLatency += static_cast<double>(lat);
  procCycles_[pid] += lat;
  return lat;
}

Cycle TraceSimulator::doWrite(NodeId pid, Addr block) {
  ++m_.writes;
  // Release consistency: write latency is hidden (paper: "all write requests
  // are cache hits"), but the coherence actions still happen.
  procCycles_[pid] += 1;
  CacheLine* line = caches_[pid].find(block);
  if (line != nullptr && line->state == CacheState::M) return 1;

  DirEntry& d = dir_.findOrInsert(block);
  switch (d.state) {
    case TDir::Modified:
      if (d.owner != pid) {
        // Recall the dirty line from its owner.
        if (CacheLine* ol = caches_[d.owner].find(block); ol != nullptr)
          caches_[d.owner].invalidate(*ol);
        clearPathEntries(d.owner, block);  // recall copyback clears entries
      }
      break;
    case TDir::Shared:
      for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        if (n == pid || (d.sharers & bit(n)) == 0) continue;
        if (CacheLine* sl = caches_[n].find(block); sl != nullptr) caches_[n].invalidate(*sl);
      }
      break;
    case TDir::Uncached:
      break;
  }
  // A WriteRequest traversing the forward path invalidates matching entries.
  clearPathEntries(pid, block);
  d.state = TDir::Modified;
  d.owner = pid;
  d.sharers = 0;
  if (line != nullptr) {
    line->state = CacheState::M;
  } else {
    fill(pid, block, CacheState::M);
  }
  // The WriteReply deposits fresh ownership info on its backward path.
  depositEntries(pid, block);
  return 1;
}

Cycle TraceSimulator::access(NodeId pid, Addr addr, bool write) {
  if (pid >= cfg_.numNodes) {
    throw std::out_of_range("TraceSimulator: pid " + std::to_string(pid) +
                            " out of range for numNodes " + std::to_string(cfg_.numNodes));
  }
  const Addr block = cfg_.blockOf(addr);
  ++m_.refs;
  return write ? doWrite(pid, block) : doRead(pid, block);
}

void TraceSimulator::run(RefStream& gen) {
  TraceRecord r;
  while (gen.next(r)) access(r);
  finalize();
}

void TraceSimulator::finalize() {
  Cycle maxc = 0;
  for (const Cycle c : procCycles_) maxc = std::max(maxc, c);
  m_.execTime = maxc;
}

std::vector<BlockStat> TraceSimulator::blockStats() const {
  std::vector<BlockStat> v;
  v.reserve(blocks_.size());
  blocks_.forEach([&v](const BlockStat& b) { v.push_back(b); });
  std::sort(v.begin(), v.end(), [](const BlockStat& a, const BlockStat& b) {
    if (a.misses != b.misses) return a.misses > b.misses;
    return fibonacciScramble(a.block) < fibonacciScramble(b.block);
  });
  return v;
}

std::uint64_t TraceSimulator::switchEntries(SDState s) const {
  std::uint64_t n = 0;
  for (const auto& c : switchDirs_) n += c.countState(s);
  return n;
}

}  // namespace dresar

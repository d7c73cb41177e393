// Unit tests for the trace-driven simulator: service classification and
// latencies (Table 3), directory bookkeeping, and switch-directory capture.
#include "trace/tpc_gen.h"
#include "trace/trace_file.h"
#include "trace/trace_sim.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.h"
#include "traffic/traffic_model.h"

namespace dresar {
namespace {

TraceConfig cfgWith(std::uint32_t sdEntries) {
  TraceConfig c;
  c.switchDir.entries = sdEntries;
  return c;
}

// An address homed at node `h` (page-interleaved round robin).
Addr addrHomedAt(const TraceConfig& c, NodeId h, std::uint32_t blockInPage = 0) {
  return static_cast<Addr>(h) * c.pageBytes + blockInPage * c.lineBytes;
}

TEST(TraceSim, ReadHitCostsCacheAccess) {
  TraceConfig c = cfgWith(0);
  TraceSimulator sim(c);
  const Addr a = addrHomedAt(c, 3);
  sim.access(0, a, false);  // cold miss
  sim.access(0, a, false);  // hit
  EXPECT_EQ(sim.metrics().readHits, 1u);
  EXPECT_EQ(sim.metrics().readMisses, 1u);
}

TEST(TraceSim, LocalVsRemoteCleanLatency) {
  TraceConfig c = cfgWith(0);
  TraceSimulator sim(c);
  sim.access(3, addrHomedAt(c, 3), false);  // local home
  EXPECT_EQ(sim.metrics().svcCleanLocal, 1u);
  EXPECT_DOUBLE_EQ(sim.metrics().totalReadLatency,
                   static_cast<double>(c.cacheAccess + c.localMemory));
  sim.access(4, addrHomedAt(c, 3, 1), false);  // remote home
  EXPECT_EQ(sim.metrics().svcCleanRemote, 1u);
}

TEST(TraceSim, DirtyReadIsHomeCtoC) {
  TraceConfig c = cfgWith(0);
  TraceSimulator sim(c);
  const Addr a = addrHomedAt(c, 2);
  sim.access(0, a, true);   // P0 writes: dirty at P0
  sim.access(1, a, false);  // P1 reads: c2c via home (remote home for P1)
  EXPECT_EQ(sim.metrics().svcCtoCRemote, 1u);
  EXPECT_EQ(sim.metrics().homeCtoC, 1u);
  // Reader whose home is local.
  sim.access(0, a, true);
  sim.access(2, a, false);
  EXPECT_EQ(sim.metrics().svcCtoCLocal, 1u);
}

TEST(TraceSim, CtoCDowngradesOwnerAndSharesDir) {
  TraceConfig c = cfgWith(0);
  TraceSimulator sim(c);
  const Addr a = addrHomedAt(c, 2);
  sim.access(0, a, true);
  sim.access(1, a, false);
  // Second read by a third processor must now be clean (block was copied
  // back to memory).
  sim.access(3, a, false);
  EXPECT_EQ(sim.metrics().svcCtoCRemote + sim.metrics().svcCtoCLocal, 1u);
  EXPECT_EQ(sim.metrics().svcCleanRemote, 1u);
}

TEST(TraceSim, WriteInvalidatesSharers) {
  TraceConfig c = cfgWith(0);
  TraceSimulator sim(c);
  const Addr a = addrHomedAt(c, 2);
  sim.access(0, a, false);
  sim.access(1, a, false);
  sim.access(5, a, true);   // invalidates P0, P1
  sim.access(0, a, false);  // misses again, c2c from P5
  EXPECT_EQ(sim.metrics().ctoc(), 1u);
}

TEST(TraceSim, SwitchDirCapturesOwnershipAndServesReads) {
  TraceConfig c = cfgWith(1024);
  TraceSimulator sim(c);
  const Addr a = addrHomedAt(c, 2);
  sim.access(0, a, true);   // WriteReply deposits entries
  EXPECT_GT(sim.metrics().sdDeposits, 0u);
  sim.access(1, a, false);  // read re-routed by the switch directory
  EXPECT_EQ(sim.metrics().svcSwitchDir, 1u);
  EXPECT_EQ(sim.metrics().homeCtoC, 0u);
  EXPECT_DOUBLE_EQ(sim.metrics().totalReadLatency,
                   static_cast<double>(c.cacheAccess + c.switchDirHit));
}

TEST(TraceSim, SwitchDirEntryClearedAfterService) {
  TraceConfig c = cfgWith(1024);
  TraceSimulator sim(c);
  const Addr a = addrHomedAt(c, 2);
  sim.access(0, a, true);
  sim.access(1, a, false);  // switch-dir c2c; copyback clears entries
  sim.access(3, a, false);  // must be served clean by the home
  EXPECT_EQ(sim.metrics().svcSwitchDir, 1u);
  EXPECT_EQ(sim.metrics().svcCleanLocal + sim.metrics().svcCleanRemote, 1u);
  EXPECT_EQ(sim.switchEntries(SDState::Modified), 0u);
}

TEST(TraceSim, WritebackClearsEntriesAndDirectory) {
  TraceConfig c = cfgWith(1024);
  // Tiny cache: 2 sets * 1 way * 32B, forces conflict evictions.
  c.cacheBytes = 64;
  c.cacheAssoc = 1;
  TraceSimulator sim(c);
  const Addr a = addrHomedAt(c, 2);
  const Addr conflict = a + 64;  // same set (2 sets of 32B)
  sim.access(0, a, true);
  sim.access(0, conflict, true);  // evicts a (dirty) -> writeback
  sim.access(1, a, false);        // must be clean from memory, not c2c
  EXPECT_EQ(sim.metrics().ctoc(), 0u);
}

TEST(TraceSim, RecallOnWriteToDirtyBlock) {
  TraceConfig c = cfgWith(1024);
  TraceSimulator sim(c);
  const Addr a = addrHomedAt(c, 2);
  sim.access(0, a, true);
  sim.access(1, a, true);   // recall from P0, ownership to P1
  sim.access(2, a, false);  // c2c (or switch-dir) from P1
  EXPECT_EQ(sim.metrics().ctoc(), 1u);
  // P0 must have lost the line.
  sim.access(0, a, false);
  EXPECT_EQ(sim.metrics().readMisses, 2u);
}

TEST(TraceSim, OwnerReadsOwnDirtyLineIsAHit) {
  TraceConfig c = cfgWith(1024);
  TraceSimulator sim(c);
  const Addr a = addrHomedAt(c, 2);
  sim.access(0, a, true);
  sim.access(0, a, false);
  EXPECT_EQ(sim.metrics().readHits, 1u);
  EXPECT_EQ(sim.metrics().ctoc(), 0u);
}

TEST(TraceSim, ExecTimeIsMaxPerProcessor) {
  TraceConfig c = cfgWith(0);
  TraceSimulator sim(c);
  // P0 performs two expensive misses; P1 one.
  sim.access(0, addrHomedAt(c, 1), false);
  sim.access(0, addrHomedAt(c, 2), false);
  sim.access(1, addrHomedAt(c, 3), false);
  TpcGenerator gen(TpcParams::tpcc(0));  // empty: just finalizes metrics
  sim.run(gen);
  EXPECT_EQ(sim.metrics().execTime, 2u * (c.cacheAccess + c.remoteMemory));
}

TEST(TraceSim, SmallDirectoryCapturesLessThanLarge) {
  TraceMetrics small, large;
  for (const std::uint32_t entries : {64u, 4096u}) {
    TraceConfig c = cfgWith(entries);
    TraceSimulator sim(c);
    TpcGenerator gen(TpcParams::tpcc(200'000));
    sim.run(gen);
    (entries == 64 ? small : large) = sim.metrics();
  }
  EXPECT_LT(small.svcSwitchDir, large.svcSwitchDir);
  EXPECT_GT(small.homeCtoC, large.homeCtoC);
}

TEST(TraceSim, PidBeyondMachineThrows) {
  // A trace recorded on a larger machine: pid 16 on a 16-node config.
  std::istringstream is("0 r 1000\n16 r 1000\n");
  TraceReader reader(is);
  TraceSimulator sim(cfgWith(1024));
  try {
    sim.run(reader);
    FAIL() << "pid 16 was accepted on a 16-node machine";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pid 16"), std::string::npos) << what;
    EXPECT_NE(what.find("numNodes 16"), std::string::npos) << what;
  }
  EXPECT_EQ(sim.metrics().refs, 1u);  // the bad record changed nothing
}

TEST(TraceSim, NodeTagStoresDoNotAlias) {
  // Every node's tags are a slice of one shared region, so a wrong offset
  // would let one node's fills land in another's store; no sanitizer sees
  // that inside a single mapping. The 96-byte direct-mapped cache has 3
  // lines, which the per-node stride pads to a whole 64-byte host line.
  for (const auto& [bytes, assoc] : {std::pair{4096u, 4u}, std::pair{96u, 1u}}) {
    SCOPED_TRACE(std::to_string(bytes) + " bytes, " + std::to_string(assoc) + "-way");
    TraceConfig c = cfgWith(0);
    c.cacheBytes = bytes;
    c.cacheAssoc = assoc;
    TraceSimulator sim(c);
    const std::uint32_t lines = bytes / c.lineBytes;
    // Node n's blocks fill every set of its cache exactly.
    auto block = [&](NodeId n, std::uint32_t i) {
      return static_cast<Addr>(n * lines + i) * c.lineBytes;
    };
    // Node 0 fills to capacity; node 1 holds none of its lines.
    for (std::uint32_t i = 0; i < lines; ++i) sim.access(0, block(0, i), false);
    for (std::uint32_t i = 0; i < lines; ++i) sim.access(1, block(0, i), false);
    EXPECT_EQ(sim.metrics().readHits, 0u);
    // Every node fills with its own blocks; no fill displaces another node's.
    for (NodeId n = 0; n < c.numNodes; ++n) {
      for (std::uint32_t i = 0; i < lines; ++i) sim.access(n, block(n, i), false);
    }
    const std::uint64_t hitsBefore = sim.metrics().readHits;
    for (NodeId n = 0; n < c.numNodes; ++n) {
      for (std::uint32_t i = 0; i < lines; ++i) sim.access(n, block(n, i), false);
    }
    EXPECT_EQ(sim.metrics().readHits - hitsBefore, std::uint64_t{c.numNodes} * lines);
  }
}

TEST(TraceSim, DirectoryGrowthKeepsClassificationWhole) {
  // 256K distinct blocks take the flat directory through many doublings,
  // and 64 KB caches make most fills evict (often dirty) victims while the
  // read/write paths hold a directory entry. Every value was captured from
  // the hash-map directory this table replaced.
  TraceConfig c = cfgWith(1024);
  c.cacheBytes = 64 * 1024;
  TraceSimulator sim(c);
  Rng rng(0x5eed);
  constexpr std::uint64_t kBlocks = 256 * 1024;
  for (std::uint64_t i = 0; i < kBlocks; ++i) {
    sim.access(static_cast<NodeId>(rng.below(c.numNodes)), i * c.lineBytes, rng.chance(0.5));
    sim.access(static_cast<NodeId>(rng.below(c.numNodes)), rng.below(i + 1) * c.lineBytes,
               rng.chance(0.3));
  }
  sim.finalize();
  const TraceMetrics& m = sim.metrics();
  EXPECT_EQ(m.svcCleanLocal + m.svcCleanRemote + m.ctoc(), m.readMisses);
  EXPECT_EQ(m.refs, 524'288u);
  EXPECT_EQ(m.reads, 314'903u);
  EXPECT_EQ(m.readMisses, 310'101u);
  EXPECT_EQ(m.svcCleanLocal, 17'965u);
  EXPECT_EQ(m.svcCleanRemote, 268'365u);
  EXPECT_EQ(m.svcCtoCLocal, 786u);
  EXPECT_EQ(m.svcCtoCRemote, 11'575u);
  EXPECT_EQ(m.svcSwitchDir, 11'410u);
  EXPECT_EQ(m.homeCtoC, 12'361u);
  EXPECT_EQ(m.sdDeposits, 417'468u);
  EXPECT_DOUBLE_EQ(m.totalReadLatency, 80'249'544.0);
  EXPECT_EQ(m.execTime, 5'076'704u);
}

// ------------------------------------------------------------------ golden
// Full TraceMetrics of 100K-ref streams on 16 nodes with 1024-entry switch
// directories, captured from the hash-map directory and 24-byte cache tags
// that the flat trace layer replaced. Any change here is a simulated-output
// change, not a speed-up.

enum class GoldenStream { TpcC, TpcD, KvReadMostly, KvWriteHeavy };

struct Golden {
  GoldenStream stream;
  TraceMetrics m;
  std::size_t blocks;        ///< distinct blocks with a read miss
  std::uint64_t top10Ctocs;  ///< c2c of the top 10% of blockStats()
};

TraceMetrics golden(std::uint64_t refs, std::uint64_t reads, std::uint64_t writes,
                    std::uint64_t readHits, std::uint64_t readMisses, std::uint64_t cleanLocal,
                    std::uint64_t cleanRemote, std::uint64_t ctocLocal, std::uint64_t ctocRemote,
                    std::uint64_t switchDir, std::uint64_t homeCtoC, std::uint64_t deposits,
                    std::uint64_t staleRetries, double readLatency, Cycle execTime) {
  TraceMetrics m;
  m.refs = refs;
  m.reads = reads;
  m.writes = writes;
  m.readHits = readHits;
  m.readMisses = readMisses;
  m.svcCleanLocal = cleanLocal;
  m.svcCleanRemote = cleanRemote;
  m.svcCtoCLocal = ctocLocal;
  m.svcCtoCRemote = ctocRemote;
  m.svcSwitchDir = switchDir;
  m.homeCtoC = homeCtoC;
  m.sdDeposits = deposits;
  m.sdStaleRetries = staleRetries;
  m.totalReadLatency = readLatency;
  m.execTime = execTime;
  return m;
}

std::unique_ptr<RefStream> makeStream(GoldenStream s, std::uint64_t refs) {
  switch (s) {
    case GoldenStream::TpcC: return std::make_unique<TpcGenerator>(TpcParams::tpcc(refs));
    case GoldenStream::TpcD: return std::make_unique<TpcGenerator>(TpcParams::tpcd(refs));
    case GoldenStream::KvReadMostly:
    case GoldenStream::KvWriteHeavy: {
      TrafficConfig tc = TrafficConfig::kv(refs);
      tc.applyMix(s == GoldenStream::KvWriteHeavy ? "writeheavy" : "readmostly");
      return std::make_unique<TrafficModel>(tc);
    }
  }
  return nullptr;
}

TEST(TraceSimGolden, MetricsMatchCapturedValues) {
  const Golden cases[] = {
      {GoldenStream::TpcC,
       golden(100'000, 73'026, 26'974, 63'707, 9'319, 333, 5'074, 21, 470, 3'421, 491, 18'458, 0,
              2'775'968.0, 185'055),
       4'539, 3'455},
      {GoldenStream::TpcD,
       golden(100'000, 75'249, 24'751, 64'795, 10'454, 282, 4'220, 18, 232, 5'702, 250, 19'712, 0,
              2'945'992.0, 201'916),
       3'792, 2'012},
      {GoldenStream::KvReadMostly,
       golden(100'000, 97'060, 2'940, 41'027, 56'033, 3'447, 50'887, 0, 2, 1'697, 2, 5'860, 0,
              14'691'840.0, 945'743),
       28'287, 1'383},
      {GoldenStream::KvWriteHeavy,
       golden(100'000, 59'782, 40'218, 9'940, 49'842, 2'200, 32'248, 36, 676, 14'682, 712, 76'030,
              0, 12'243'376.0, 797'295),
       19'369, 13'319},
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(static_cast<int>(g.stream));
    TraceSimulator sim(cfgWith(1024));
    sim.enableBlockStats();
    sim.run(*makeStream(g.stream, 100'000));
    const TraceMetrics& m = sim.metrics();
    EXPECT_EQ(m.refs, g.m.refs);
    EXPECT_EQ(m.reads, g.m.reads);
    EXPECT_EQ(m.writes, g.m.writes);
    EXPECT_EQ(m.readHits, g.m.readHits);
    EXPECT_EQ(m.readMisses, g.m.readMisses);
    EXPECT_EQ(m.svcCleanLocal, g.m.svcCleanLocal);
    EXPECT_EQ(m.svcCleanRemote, g.m.svcCleanRemote);
    EXPECT_EQ(m.svcCtoCLocal, g.m.svcCtoCLocal);
    EXPECT_EQ(m.svcCtoCRemote, g.m.svcCtoCRemote);
    EXPECT_EQ(m.svcSwitchDir, g.m.svcSwitchDir);
    EXPECT_EQ(m.homeCtoC, g.m.homeCtoC);
    EXPECT_EQ(m.sdDeposits, g.m.sdDeposits);
    EXPECT_EQ(m.sdStaleRetries, g.m.sdStaleRetries);
    EXPECT_DOUBLE_EQ(m.totalReadLatency, g.m.totalReadLatency);
    EXPECT_EQ(m.execTime, g.m.execTime);

    // Figure 2: c2c share of the top 10% of blockStats()' ranking.
    const std::vector<BlockStat> ranked = sim.blockStats();
    std::uint64_t misses = 0, ctocs = 0, top10 = 0;
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      misses += ranked[i].misses;
      ctocs += ranked[i].ctocs;
      if (i < ranked.size() / 10) top10 += ranked[i].ctocs;
    }
    EXPECT_EQ(ranked.size(), g.blocks);
    EXPECT_EQ(misses, g.m.readMisses);
    EXPECT_EQ(ctocs, m.ctoc());
    EXPECT_EQ(top10, g.top10Ctocs);
  }
}

}  // namespace
}  // namespace dresar

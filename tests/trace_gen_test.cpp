// The synthetic TPC generators must reproduce the sharing statistics the
// paper reports for the IBM COMPASS traces (see DESIGN.md substitution #2).
#include "trace/tpc_gen.h"

#include <gtest/gtest.h>

#include <vector>

#include "trace/trace_sim.h"

namespace dresar {
namespace {

TEST(TpcGenerator, EmitsExactlyRefs) {
  TpcGenerator gen(TpcParams::tpcc(10000));
  TraceRecord r;
  std::uint64_t n = 0;
  while (gen.next(r)) ++n;
  EXPECT_EQ(n, 10000u);
  EXPECT_FALSE(gen.next(r));
}

TEST(TpcGenerator, Deterministic) {
  TpcGenerator a(TpcParams::tpcc(5000)), b(TpcParams::tpcc(5000));
  TraceRecord ra, rb;
  while (a.next(ra)) {
    ASSERT_TRUE(b.next(rb));
    EXPECT_EQ(ra.pid, rb.pid);
    EXPECT_EQ(ra.addr, rb.addr);
    EXPECT_EQ(ra.write, rb.write);
  }
}

TEST(TpcGenerator, PidsInRange) {
  TpcGenerator gen(TpcParams::tpcc(20000));
  TraceRecord r;
  while (gen.next(r)) ASSERT_LT(r.pid, 16u);
}

TEST(TpcGenerator, RegionsAreDisjoint) {
  TpcGenerator gen(TpcParams::tpcc(1));
  EXPECT_NE(gen.privateAddr(0, 0), gen.hotAddr(0));
  EXPECT_NE(gen.hotAddr(0), gen.warmAddr(0));
  EXPECT_NE(gen.privateAddr(0, 0), gen.privateAddr(1, 0));
}

struct TraceProfile {
  double dirtyFraction;
  double top10CtocShare;
  double missRate;
  std::size_t blocks;
};

TraceProfile profile(const TpcParams& p) {
  TraceConfig cfg;
  cfg.switchDir.entries = 0;
  TraceSimulator sim(cfg);
  sim.enableBlockStats();
  TpcGenerator gen(p);
  sim.run(gen);
  const TraceMetrics& m = sim.metrics();

  const std::vector<BlockStat> v = sim.blockStats();
  std::uint64_t totalCtoc = 0;
  for (const BlockStat& b : v) totalCtoc += b.ctocs;
  std::uint64_t topCtoc = 0;
  for (std::size_t i = 0; i < v.size() / 10; ++i) topCtoc += v[i].ctocs;
  return {m.dirtyFraction(),
          totalCtoc != 0 ? static_cast<double>(topCtoc) / static_cast<double>(totalCtoc) : 0.0,
          static_cast<double>(m.readMisses) / static_cast<double>(m.reads), v.size()};
}

TEST(TpcCalibration, TpccMatchesPaperFigure1And2) {
  const TraceProfile p = profile(TpcParams::tpcc(1'000'000));
  // Paper: ~38% of TPC-C read misses are c2c (Figure 1).
  EXPECT_GT(p.dirtyFraction, 0.32);
  EXPECT_LT(p.dirtyFraction, 0.48);
  // Paper: top 10% of blocks account for ~88% of c2c (Figure 2).
  EXPECT_GT(p.top10CtocShare, 0.80);
  EXPECT_LT(p.top10CtocShare, 0.95);
  EXPECT_GT(p.blocks, 10'000u);  // tens of thousands of distinct blocks
}

TEST(TpcCalibration, TpcdMatchesPaperFigure1) {
  const TraceProfile p = profile(TpcParams::tpcd(1'000'000));
  // Paper: ~62% of TPC-D read misses are c2c.
  EXPECT_GT(p.dirtyFraction, 0.52);
  EXPECT_LT(p.dirtyFraction, 0.72);
}

TEST(TpcCalibration, TpcdIsDirtierThanTpcc) {
  const TraceProfile c = profile(TpcParams::tpcc(500'000));
  const TraceProfile d = profile(TpcParams::tpcd(500'000));
  EXPECT_GT(d.dirtyFraction, c.dirtyFraction);
}

}  // namespace
}  // namespace dresar

// Figure 2: cumulative distribution of read misses and cache-to-cache
// transfers over TPC-C blocks ranked by misses-per-block. The paper found
// ~440K read misses over ~130K blocks (~170K c2c) at 16M references, with
// only 10% of the blocks accounting for ~88% of the c2c transfers.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "trace/tpc_gen.h"

using namespace dresar;
using namespace dresar::bench;

int main(int argc, char** argv) {
  const Options o = Options::parse(argc, argv);
  TraceConfig cfg = TraceConfig::paperTable3();
  cfg.switchDir.entries = 0;
  TraceSimulator sim(cfg);
  sim.enableBlockStats();
  TpcGenerator gen(TpcParams::tpcc(o.traceRefs));
  const auto t0 = std::chrono::steady_clock::now();
  sim.run(gen);
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  const TraceMetrics& m = sim.metrics();

  const std::vector<BlockStat> v = sim.blockStats();
  std::uint64_t totalMisses = 0, totalCtoc = 0;
  for (const BlockStat& b : v) {
    totalMisses += b.misses;
    totalCtoc += b.ctocs;
  }

  std::printf("Figure 2: Access Frequency of TPC-C Blocks (%llu refs)\n",
              static_cast<unsigned long long>(o.traceRefs));
  std::printf("  blocks touched: %zu, read misses: %llu, c2c transfers: %llu\n", v.size(),
              static_cast<unsigned long long>(totalMisses),
              static_cast<unsigned long long>(totalCtoc));
  std::printf("  (paper at 16M refs: ~130K blocks, ~440K misses, ~170K c2c)\n\n");
  std::printf("  %-16s %10s %10s\n", "blocks (ranked)", "misses%", "c2c%");
  std::uint64_t cumMiss = 0, cumCtoc = 0;
  std::size_t next = v.size() / 20;  // 5% steps
  if (next == 0) next = 1;
  std::size_t checkpoint = next;
  for (std::size_t i = 0; i < v.size(); ++i) {
    cumMiss += v[i].misses;
    cumCtoc += v[i].ctocs;
    if (i + 1 == checkpoint || i + 1 == v.size()) {
      std::printf("  %6.1f%%          %9.1f%% %9.1f%%\n",
                  100.0 * static_cast<double>(i + 1) / static_cast<double>(v.size()),
                  100.0 * static_cast<double>(cumMiss) / static_cast<double>(totalMisses),
                  totalCtoc ? 100.0 * static_cast<double>(cumCtoc) / static_cast<double>(totalCtoc)
                            : 0.0);
      checkpoint += next;
    }
  }
  // The headline number.
  std::uint64_t top10 = 0, seen = 0;
  for (std::size_t i = 0; i < v.size() / 10; ++i) {
    top10 += v[i].ctocs;
    ++seen;
  }
  const double top10Pct =
      totalCtoc ? 100.0 * static_cast<double>(top10) / static_cast<double>(totalCtoc) : 0.0;
  std::printf("\n  top 10%% of blocks (%zu) account for %.1f%% of c2c transfers (paper: ~88%%)\n",
              seen, top10Pct);
  RunRecord rec = makeTraceRecord("TPC-C", "base", 0, wall.count(), m);
  rec.metric("blocks_touched", static_cast<double>(v.size()));
  rec.metric("top10_ctoc_pct", top10Pct);
  o.ctx.recorder.add(std::move(rec));
  return writeJsonIfRequested(o);
}

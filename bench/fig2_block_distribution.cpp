// Figure 2: cumulative distribution of read misses and cache-to-cache
// transfers over TPC-C blocks ranked by misses-per-block. The paper found
// ~440K read misses over ~130K blocks (~170K c2c) at 16M references, with
// only 10% of the blocks accounting for ~88% of the c2c transfers.
//
// Stays a program rather than a dresar-sweep report: the per-block ranking
// is not a run metric.
//
//   fig2_block_distribution [--quick | --paper] [--refs=N]
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "trace/tpc_gen.h"
#include "trace/trace_sim.h"

using namespace dresar;

namespace {

[[noreturn]] void usage(const char* argv0, int rc) {
  std::fprintf(stderr,
               "usage: %s [--quick | --paper] [--refs=N]\n"
               "  --quick   200K references (CI smoke)\n"
               "  --paper   16M references, the paper's trace length\n"
               "  --refs=N  trace length (positive integer; default 1M)\n",
               argv0);
  std::exit(rc);
}

std::uint64_t parseRefs(int argc, char** argv) {
  std::uint64_t refs = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      refs = 200'000;
    } else if (a == "--paper") {
      refs = 16'000'000;
    } else if (a == "--help" || a == "-h") {
      usage(argv[0], 0);
    } else if (a.rfind("--refs=", 0) == 0) {
      const char* first = a.data() + 7;
      const char* last = a.data() + a.size();
      const auto [ptr, ec] = std::from_chars(first, last, refs);
      if (first == last || ec != std::errc() || ptr != last || refs == 0) {
        std::fprintf(stderr, "error: --refs expects a positive integer: %s\n", a.c_str());
        usage(argv[0], 2);
      }
    } else {
      std::fprintf(stderr, "error: unknown option: %s\n", a.c_str());
      usage(argv[0], 2);
    }
  }
  return refs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t refs = parseRefs(argc, argv);
  TraceConfig cfg = TraceConfig::paperTable3();
  cfg.switchDir.entries = 0;
  TraceSimulator sim(cfg);
  sim.enableBlockStats();
  TpcGenerator gen(TpcParams::tpcc(refs));
  sim.run(gen);

  const std::vector<BlockStat> v = sim.blockStats();
  std::uint64_t totalMisses = 0, totalCtoc = 0;
  for (const BlockStat& b : v) {
    totalMisses += b.misses;
    totalCtoc += b.ctocs;
  }

  std::printf("Figure 2: Access Frequency of TPC-C Blocks (%llu refs)\n",
              static_cast<unsigned long long>(refs));
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
  return 0;
}

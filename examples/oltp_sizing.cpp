// OLTP/DSS capacity planning: how large should the per-switch directory be?
// Replays the paper's trace-driven experiment across directory sizes for
// TPC-C and TPC-D and prints the size the data recommends — the paper's
// conclusion was that "a directory size of 1K entries seems to be the most
// reasonable".
//
//   ./oltp_sizing [refs] [results.json]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/aggregate.h"
#include "harness/run_context.h"

using namespace dresar;

namespace {
// Each run goes through the harness: Table 3 defaults, one JobSpec per
// (workload, size) cell, and its result (record included) is kept, to be
// written as the same result document dresar-sweep emits.
RunRecord run(std::vector<harness::JobResult>& results, bool tpcd, std::uint32_t entries,
              std::uint64_t refs) {
  harness::JobSpec j;
  j.kind = harness::JobKind::Trace;
  j.app = tpcd ? "tpcd" : "tpcc";
  j.sdEntries = entries;
  j.traceRefs = refs;
  results.push_back(harness::runJobs({j}, 1)[0]);
  return results.back().record;
}
}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t refs = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1'000'000;
  const std::vector<std::uint32_t> sizes = {128, 256, 512, 1024, 2048, 4096};
  std::vector<harness::JobResult> results;

  for (const bool tpcd : {false, true}) {
    const char* name = tpcd ? "TPC-D" : "TPC-C";
    const RunRecord base = run(results, tpcd, 0, refs);
    std::printf("%s (%llu refs): base homeCtoC=%.0f, avg read latency=%.2f\n", name,
                static_cast<unsigned long long>(refs), base.value("home_ctoc"),
                base.value("avg_read_latency"));
    std::printf("  %8s %12s %12s %14s %16s\n", "entries", "sd hits", "homeCtoC", "lat gain",
                "marginal gain");
    double prevGain = 0.0;
    std::uint32_t knee = sizes.front();
    bool kneeFound = false;
    for (const auto e : sizes) {
      const RunRecord m = run(results, tpcd, e, refs);
      const double gain =
          100.0 * (1.0 - m.value("avg_read_latency") / base.value("avg_read_latency"));
      const double marginal = gain - prevGain;
      std::printf("  %8u %12.0f %12.0f %13.2f%% %15.2f%%\n", e, m.value("svc_switch_dir"),
                  m.value("home_ctoc"), gain, marginal);
      if (!kneeFound && prevGain > 0.0 && marginal < prevGain * 0.5) {
        knee = e;
        kneeFound = true;
      }
      prevGain = gain;
    }
    std::printf("  -> diminishing returns near %u entries%s\n\n", kneeFound ? knee : sizes.back(),
                kneeFound ? "" : " (no knee in range)");
  }
  std::printf("Paper conclusion: ~1K entries per switch is the sweet spot.\n");
  // Optionally persist every run above as one result document.
  if (argc > 2) {
    harness::SweepJsonOptions jo;
    jo.specName = "oltp_sizing";
    jo.options = {{"trace_refs", std::to_string(refs)}};
    std::ofstream out(argv[2]);
    const std::vector<RunRecord> records = harness::canonicalRecords(results);
    out << harness::sweepToJson(records, harness::aggregate(records), jo);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", argv[2]);
      return 1;
    }
  }
  return 0;
}

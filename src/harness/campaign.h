// Resumable, shardable sweep campaigns. A campaign is one expansion of a
// sweep spec's job matrix plus the policies that make long campaigns
// practical on real machines:
//
//   - persistence: every finished job is appended to a JSONL job store
//     (job_store.h) as it completes, so a killed run loses at most the
//     in-flight jobs; each line is stamped with the campaign's scale, and a
//     store from another scale is refused;
//   - resume: a re-run with the same spec folds completed cells back in from
//     the store (byte-identical to an uninterrupted run in --deterministic
//     mode) and only simulates what is missing — failed jobs are retried;
//   - sharding: --shard I/N deterministically partitions the matrix by job
//     index so N machines each run a disjoint slice, each writing its own
//     store; mergeCampaignStores() reassembles the canonical document from
//     the shard stores without running anything;
//   - failure isolation: a throwing job records an error entry and the
//     campaign continues — sibling results are never discarded; the driver
//     reports every failure and exits non-zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/job.h"
#include "harness/job_store.h"
#include "harness/run_context.h"

namespace dresar::harness {

struct CampaignOptions {
  unsigned threads = 1;
  /// JSONL job store path; empty disables persistence (and resume).
  std::string storePath;
  /// Fold completed jobs in from an existing store instead of re-running
  /// them. Without it, an existing store is truncated (fresh campaign).
  bool resume = false;
  /// Run only jobs whose matrix index i satisfies i % shardCount ==
  /// shardIndex. The default 0/1 runs the whole matrix.
  std::uint32_t shardIndex = 0;
  std::uint32_t shardCount = 1;
  /// The problem scale the jobs run at, stamped on every successful store
  /// line. A stamped store line from another scale fails the campaign.
  ScaleStamp stamp;
};

struct CampaignResult {
  struct Failure {
    JobSpec job;
    std::string error;
  };

  /// Successful results — resumed and freshly executed — in matrix order.
  std::vector<JobResult> results;
  /// Jobs that threw this invocation (already persisted as error entries).
  std::vector<Failure> failures;
  std::size_t executed = 0;      ///< jobs simulated by this invocation
  std::size_t resumed = 0;       ///< jobs satisfied from the store
  std::size_t shardSkipped = 0;  ///< jobs belonging to other shards

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Run the campaign over `jobs` (the full expanded matrix — sharding is
/// applied inside). Throws std::runtime_error only for campaign-level
/// failures (unreadable/unwritable store, a store line stamped with another
/// scale); individual job failures come back in CampaignResult::failures.
CampaignResult runCampaign(const std::vector<JobSpec>& jobs, const CampaignOptions& opts);

/// Reassemble a complete campaign from shard stores without simulating:
/// every job of `jobs` must have a successful entry in some store (last
/// entry wins across duplicates). Missing or failed cells are reported as
/// failures; a line stamped with a scale other than `stamp` throws.
CampaignResult mergeCampaignStores(const std::vector<JobSpec>& jobs,
                                   const std::vector<std::string>& storePaths,
                                   const ScaleStamp& stamp);

}  // namespace dresar::harness

// Resumable, shardable sweep campaigns. A campaign is one expansion of a
// sweep spec's job matrix plus the policies that make long campaigns
// practical on real machines:
//
//   - persistence: every finished job is appended to a JSONL job store
//     (job_store.h) as it completes, so a killed run loses at most the
//     in-flight jobs; each line is stamped with the campaign's schema and
//     scale, and a line with another stamp is refused;
//   - resume: a re-run with the same spec folds completed cells back in from
//     its own store and from any further stores named (--merge), then
//     simulates only what none of them holds — failed jobs are retried. The
//     document is byte-identical to an uninterrupted run in --deterministic
//     mode, and the union is written back, compacted, to the campaign's store;
//   - sharding: --shard I/N deterministically partitions the matrix by job
//     index so N machines each run a disjoint slice, each writing its own
//     store; merging the shard stores reassembles the whole matrix;
//   - failure isolation: a throwing job records an error entry and the
//     campaign continues — sibling results are never discarded; the driver
//     reports every failure and exits non-zero.
//
// Resumed and fresh cells come back alike, as JobResults whose record holds
// every number an output reads.
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
  /// JSONL job store path; empty disables persistence. An existing store is
  /// truncated once resumeFrom has been read.
  std::string storePath;
  /// Stores to fold completed jobs in from instead of re-running them:
  /// --resume names the campaign's own store, --merge the shard stores. Each
  /// must exist; among successes, the last entry for a key wins.
  std::vector<std::string> resumeFrom;
  /// Run only jobs whose matrix index i satisfies i % shardCount ==
  /// shardIndex. The default 0/1 runs the whole matrix.
  std::uint32_t shardIndex = 0;
  std::uint32_t shardCount = 1;
  /// The schema and problem scale the jobs run at, stamped on every
  /// successful store line. A successful line with another stamp, or none,
  /// fails the campaign.
  StoreStamp stamp;
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
  std::size_t resumed = 0;       ///< jobs satisfied from the store(s)
  std::size_t shardSkipped = 0;  ///< jobs belonging to other shards

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Run the campaign over `jobs` (the full expanded matrix — sharding is
/// applied inside). Throws std::runtime_error only for campaign-level
/// failures (unreadable/unwritable store, a store line with another stamp);
/// individual job failures come back in CampaignResult::failures.
CampaignResult runCampaign(const std::vector<JobSpec>& jobs, const CampaignOptions& opts);

}  // namespace dresar::harness

#include "harness/campaign.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <unordered_map>

#include "harness/job_store.h"

namespace dresar::harness {

namespace {

/// Fold store entries to one per key, in first-seen file order, after
/// checking that every stamped success ran at `stamp`. Last entry wins,
/// except that an error entry never displaces a successful one — a shard
/// re-run merged with an older store must not resurrect a failure that has
/// since been fixed, regardless of file order.
std::vector<StoredJob> foldStored(std::vector<StoredJob> entries, const ScaleStamp& stamp) {
  for (const StoredJob& e : entries) {
    if (e.ok && !e.stamp.scale.empty() && e.stamp != stamp) {
      throw std::runtime_error("job store line '" + e.key + "' ran at " + e.stamp.describe() +
                               ", this campaign runs at " + stamp.describe());
    }
  }
  std::vector<StoredJob> out;
  std::unordered_map<std::string, std::size_t> index;
  for (StoredJob& e : entries) {
    const auto [it, fresh] = index.emplace(e.key, out.size());
    if (fresh) {
      out.push_back(std::move(e));
    } else if (e.ok || !out[it->second].ok) {
      out[it->second] = std::move(e);
    }
  }
  return out;
}

/// Load a store file if it exists; a missing file is an empty store (first
/// run of a campaign that was asked to be resumable).
std::vector<StoredJob> loadIfPresent(const std::string& path) {
  if (std::FILE* f = std::fopen(path.c_str(), "rb"); f != nullptr) {
    std::fclose(f);
    return JobStore::loadFile(path);
  }
  return {};
}

JobResult resumedResult(const JobSpec& job, const StoredJob& stored) {
  JobResult r;
  r.job = job;
  r.record = stored.record;
  r.wallSeconds = stored.wallSeconds;
  return r;
}

StoredJob storedFrom(const JobResult& res, const ScaleStamp& stamp) {
  StoredJob s;
  s.key = jobKeyOf(res.job);
  s.ok = res.ok;
  if (res.ok) {
    s.stamp = stamp;
    s.wallSeconds = res.wallSeconds;
    s.record = res.record;
  } else {
    s.error = res.error;
  }
  return s;
}

}  // namespace

CampaignResult runCampaign(const std::vector<JobSpec>& jobs, const CampaignOptions& opts) {
  if (opts.shardCount == 0 || opts.shardIndex >= opts.shardCount) {
    throw std::runtime_error("campaign: shard index out of range");
  }

  CampaignResult out;

  std::vector<StoredJob> priorEntries;
  std::unordered_map<std::string, StoredJob> stored;
  if (opts.resume && !opts.storePath.empty()) {
    priorEntries = foldStored(loadIfPresent(opts.storePath), opts.stamp);
    for (const StoredJob& e : priorEntries) stored.emplace(e.key, e);
  }

  // Partition the matrix: my shard's jobs, split into resumed and to-run.
  // Matrix index — not a hash — keys the shard so the partition is stable
  // across machines and runs of the same spec.
  std::vector<JobSpec> toRun;
  std::vector<std::size_t> toRunIndex;          // matrix position of toRun[k]
  std::vector<JobResult> byIndex(jobs.size());  // slots for my shard's results
  std::vector<bool> have(jobs.size(), false);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i % opts.shardCount != opts.shardIndex) {
      ++out.shardSkipped;
      continue;
    }
    if (const auto it = stored.find(jobKeyOf(jobs[i])); it != stored.end() && it->second.ok) {
      byIndex[i] = resumedResult(jobs[i], it->second);
      have[i] = true;
      ++out.resumed;
      continue;
    }
    toRun.push_back(jobs[i]);
    toRunIndex.push_back(i);
  }

  // The store is always rewritten from scratch. On resume this compacts it:
  // the folded prior entries are written back as clean whole lines, so a torn
  // final line (mid-write kill) or a displaced duplicate never survives into
  // the file the NEXT resume will read — appending directly after a torn line
  // would glue the new record onto it and corrupt the store.
  JobStore store;
  if (!opts.storePath.empty()) {
    if (!store.open(opts.storePath, /*append=*/false)) {
      throw std::runtime_error("campaign: cannot open job store '" + opts.storePath +
                               "' for writing");
    }
    for (const StoredJob& e : priorEntries) store.append(e);
  }

  const JobDoneFn persist = [&store, &opts](const JobResult& res) {
    if (store.isOpen()) store.append(storedFrom(res, opts.stamp));
  };

  const std::vector<JobResult> fresh = runJobs(toRun, opts.threads, persist);
  out.executed = fresh.size();
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    if (fresh[k].ok) {
      byIndex[toRunIndex[k]] = fresh[k];
      have[toRunIndex[k]] = true;
    } else {
      out.failures.push_back({fresh[k].job, fresh[k].error});
    }
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (have[i]) out.results.push_back(std::move(byIndex[i]));
  }
  return out;
}

CampaignResult mergeCampaignStores(const std::vector<JobSpec>& jobs,
                                   const std::vector<std::string>& storePaths,
                                   const ScaleStamp& stamp) {
  std::vector<StoredJob> entries;
  for (const std::string& path : storePaths) {
    std::vector<StoredJob> more = JobStore::loadFile(path);  // missing file IS an error here
    std::move(more.begin(), more.end(), std::back_inserter(entries));
  }
  std::unordered_map<std::string, StoredJob> stored;
  for (StoredJob& e : foldStored(std::move(entries), stamp)) stored.emplace(e.key, std::move(e));

  CampaignResult out;
  for (const JobSpec& job : jobs) {
    const auto it = stored.find(jobKeyOf(job));
    if (it == stored.end()) {
      out.failures.push_back({job, "not found in any store"});
    } else if (!it->second.ok) {
      out.failures.push_back({job, it->second.error});
    } else {
      out.results.push_back(resumedResult(job, it->second));
      ++out.resumed;
    }
  }
  return out;
}

}  // namespace dresar::harness

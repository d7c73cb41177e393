#include "harness/campaign.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <unordered_map>

#include "harness/job_store.h"

namespace dresar::harness {

namespace {

/// Fold store entries to one per key, in first-seen file order, after
/// checking that every success carries `stamp`. Last entry wins,
/// except that an error entry never displaces a successful one — a shard
/// re-run merged with an older store must not resurrect a failure that has
/// since been fixed, regardless of file order.
std::vector<StoredJob> foldStored(std::vector<StoredJob> entries, const StoreStamp& stamp) {
  for (const StoredJob& e : entries) {
    if (e.ok && e.stamp != stamp) {
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

StoredJob storedFrom(const JobResult& res, const StoreStamp& stamp) {
  StoredJob s;
  s.key = jobKeyOf(res.job);
  s.ok = res.ok;
  if (res.ok) {
    s.stamp = stamp;
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

  std::vector<StoredJob> entries;
  for (const std::string& path : opts.resumeFrom) {
    std::vector<StoredJob> more = JobStore::loadFile(path);
    std::move(more.begin(), more.end(), std::back_inserter(entries));
  }
  const std::vector<StoredJob> priorEntries = foldStored(std::move(entries), opts.stamp);
  std::unordered_map<std::string, const StoredJob*> stored;
  for (const StoredJob& e : priorEntries) stored.emplace(e.key, &e);

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
    if (const auto it = stored.find(jobKeyOf(jobs[i])); it != stored.end() && it->second->ok) {
      byIndex[i].job = jobs[i];
      byIndex[i].record = it->second->record;
      have[i] = true;
      ++out.resumed;
      continue;
    }
    toRun.push_back(jobs[i]);
    toRunIndex.push_back(i);
  }

  // The store is always rewritten from scratch. On resume or merge this
  // compacts it: the folded prior entries are written back as clean whole
  // lines, so a torn final line (mid-write kill) or a displaced duplicate
  // never survives into the file the NEXT resume will read — appending
  // directly after a torn line would glue the new record onto it and corrupt
  // the store.
  JobStore store;
  if (!opts.storePath.empty()) {
    if (!store.open(opts.storePath)) {
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

}  // namespace dresar::harness

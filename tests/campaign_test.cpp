// End-to-end tests for resumable, shardable campaigns: a campaign killed
// mid-run and resumed must re-emit the deterministic result document
// byte-identically; shards merged across stores must equal the
// single-machine document, simulating only cells no store holds; failures
// must be isolated, reported, and retryable on resume; store lines with
// another stamp are refused.
#include "harness/campaign.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/aggregate.h"
#include "harness/job_store.h"
#include "harness/run_context.h"
#include "harness/sweep_spec.h"

namespace dresar::harness {
namespace {

std::filesystem::path tempPath(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

/// Small but real matrix: 2 workloads x 2 configs x 2 seeds = 8 jobs, mixing
/// execution-driven and trace-driven kinds.
std::vector<JobSpec> tinyMatrix() {
  SweepSpec s;
  s.name = "campaign-test";
  s.workloads = {"fft", "tpcc"};
  s.entries = {0, 512};
  s.seeds = 2;
  s.scale = "tiny";
  s.traceRefs = 20'000;
  s.overrideScale(s.scale);
  return s.expand();
}

/// The deterministic result document over a campaign's results — the bytes the
/// sweep driver would write with --deterministic.
std::string docOf(const CampaignResult& campaign) {
  SweepJsonOptions jo;
  jo.specName = "campaign-test";
  jo.deterministic = true;
  const std::vector<RunRecord> records = canonicalRecords(campaign.results);
  return sweepToJson(records, aggregate(records), jo);
}

TEST(Campaign, ResumeFromTornStoreIsByteIdentical) {
  const auto store = tempPath("dresar_campaign_resume.jobs");
  std::filesystem::remove(store);

  // Uninterrupted reference run, persisting as it goes.
  CampaignOptions opts;
  opts.threads = 2;
  opts.storePath = store.string();
  const std::vector<JobSpec> jobs = tinyMatrix();
  const CampaignResult ref = runCampaign(jobs, opts);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref.executed, jobs.size());
  const std::string refDoc = docOf(ref);

  // Simulate a kill: keep 3 whole store lines plus a torn prefix of line 4.
  std::vector<std::string> lines;
  {
    std::ifstream in(store);
    std::string l;
    while (std::getline(in, l)) lines.push_back(l);
  }
  ASSERT_EQ(lines.size(), jobs.size());
  {
    std::ofstream out(store, std::ios::trunc);
    for (int i = 0; i < 3; ++i) out << lines[i] << "\n";
    out << lines[3].substr(0, lines[3].size() / 2);  // torn mid-write
  }

  opts.resumeFrom = {store.string()};
  const CampaignResult res = runCampaign(jobs, opts);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.resumed, 3u);
  EXPECT_EQ(res.executed, jobs.size() - 3u);
  EXPECT_EQ(docOf(res), refDoc);

  // The store is now complete again: resuming once more runs nothing.
  const CampaignResult res2 = runCampaign(jobs, opts);
  EXPECT_EQ(res2.resumed, jobs.size());
  EXPECT_EQ(res2.executed, 0u);
  EXPECT_EQ(docOf(res2), refDoc);
  std::filesystem::remove(store);
}

TEST(Campaign, ShardsMergeToTheSingleMachineDocument) {
  const auto s0 = tempPath("dresar_campaign_shard0.jobs");
  const auto s1 = tempPath("dresar_campaign_shard1.jobs");
  const std::vector<JobSpec> jobs = tinyMatrix();

  const CampaignResult ref = runCampaign(jobs, {});
  ASSERT_TRUE(ref.ok());
  const std::string refDoc = docOf(ref);

  CampaignOptions opts;
  opts.shardCount = 2;
  opts.storePath = s0.string();
  const CampaignResult r0 = runCampaign(jobs, opts);
  opts.shardIndex = 1;
  opts.storePath = s1.string();
  const CampaignResult r1 = runCampaign(jobs, opts);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r0.executed + r1.executed, jobs.size());
  EXPECT_EQ(r0.shardSkipped, r1.executed);

  CampaignOptions merge;
  merge.resumeFrom = {s0.string(), s1.string()};
  const CampaignResult m = runCampaign(jobs, merge);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.resumed, jobs.size());
  EXPECT_EQ(m.executed, 0u);
  EXPECT_EQ(docOf(m), refDoc);
  std::filesystem::remove(s0);
  std::filesystem::remove(s1);
}

TEST(Campaign, MergeSimulatesJobsMissingFromEveryStore) {
  // A merge is a resume over the union of the named stores: the half of the
  // matrix no store holds is simulated, and the union lands in the
  // campaign's own store.
  const auto s0 = tempPath("dresar_campaign_missing.jobs");
  const auto merged = tempPath("dresar_campaign_merged.jobs");
  const std::vector<JobSpec> jobs = tinyMatrix();
  const std::string refDoc = docOf(runCampaign(jobs, {}));

  CampaignOptions opts;
  opts.shardCount = 2;  // only half the matrix lands in the store
  opts.storePath = s0.string();
  ASSERT_TRUE(runCampaign(jobs, opts).ok());

  CampaignOptions merge;
  merge.resumeFrom = {s0.string()};
  merge.storePath = merged.string();
  const CampaignResult m = runCampaign(jobs, merge);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.resumed, jobs.size() / 2);
  EXPECT_EQ(m.executed, jobs.size() - jobs.size() / 2);
  EXPECT_EQ(docOf(m), refDoc);
  EXPECT_EQ(JobStore::loadFile(merged.string()).size(), jobs.size());

  // A store named for merging must exist.
  merge.resumeFrom = {tempPath("dresar_campaign_no_such.jobs").string()};
  EXPECT_THROW((void)runCampaign(jobs, merge), std::runtime_error);
  std::filesystem::remove(s0);
  std::filesystem::remove(merged);
}

TEST(Campaign, ResumeRetriesStoredFailuresAndKeepsStoredSuccesses) {
  const auto store = tempPath("dresar_campaign_retry.jobs");
  const std::vector<JobSpec> jobs = tinyMatrix();

  // Seed the store with a full run, then rewrite one job as a failure and
  // append a duplicate error entry for another (ok must win over error).
  CampaignOptions opts;
  opts.storePath = store.string();
  const CampaignResult full = runCampaign(jobs, opts);
  ASSERT_TRUE(full.ok());
  const std::string refDoc = docOf(full);

  std::vector<StoredJob> entries = JobStore::loadFile(store.string());
  ASSERT_EQ(entries.size(), jobs.size());
  {
    std::ofstream out(store, std::ios::trunc);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i == 2) {
        StoredJob fail;
        fail.key = entries[i].key;
        fail.ok = false;
        fail.error = "machine fell over";
        out << JobStore::serializeLine(fail) << "\n";  // replaces the success
      } else {
        out << JobStore::serializeLine(entries[i]) << "\n";
      }
    }
    StoredJob lateError;  // stale duplicate AFTER a success: must not displace it
    lateError.key = entries[4].key;
    lateError.ok = false;
    lateError.error = "stale failure from an older shard";
    out << JobStore::serializeLine(lateError) << "\n";
  }

  opts.resumeFrom = {store.string()};
  const CampaignResult res = runCampaign(jobs, opts);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.executed, 1u);  // only the failed cell re-ran
  EXPECT_EQ(res.resumed, jobs.size() - 1u);
  EXPECT_EQ(docOf(res), refDoc);
  std::filesystem::remove(store);
}

TEST(Campaign, RefusesStoreLinesFromAnotherScale) {
  // A job key omits the problem scale, so only the stamp tells a tiny-scale
  // line from a paper-scale one: resuming or merging across scales fails,
  // naming both, instead of folding in numbers from the wrong problem size.
  const auto store = tempPath("dresar_campaign_scale.jobs");
  const std::vector<JobSpec> jobs = tinyMatrix();
  CampaignOptions opts;
  opts.storePath = store.string();
  opts.stamp = {kSweepSchema, "tiny", 20'000};
  ASSERT_TRUE(runCampaign(jobs, opts).ok());
  for (const StoredJob& e : JobStore::loadFile(store.string())) EXPECT_EQ(e.stamp, opts.stamp);

  opts.resumeFrom = {store.string()};
  opts.stamp = {kSweepSchema, "paper", 16'000'000};
  try {
    (void)runCampaign(jobs, opts);
    FAIL() << "a store from another scale must not resume";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scale=tiny trace_refs=20000"), std::string::npos) << what;
    EXPECT_NE(what.find("scale=paper trace_refs=16000000"), std::string::npos) << what;
  }

  // The same scale resumes with zero work.
  opts.stamp = {kSweepSchema, "tiny", 20'000};
  const CampaignResult again = runCampaign(jobs, opts);
  EXPECT_EQ(again.resumed, jobs.size());
  EXPECT_EQ(again.executed, 0u);
  std::filesystem::remove(store);
}

TEST(Campaign, UnstampedStoreLinesAreRefused) {
  // Lines written before the schema stamp existed lack metrics the reports
  // read, so folding them in would break resume byte-identity: a successful
  // line without the stamp is refused, naming both stamps.
  const auto store = tempPath("dresar_campaign_unstamped.jobs");
  const std::vector<JobSpec> jobs = tinyMatrix();
  CampaignOptions opts;
  opts.storePath = store.string();
  opts.stamp = {kSweepSchema, "tiny", 20'000};
  ASSERT_TRUE(runCampaign(jobs, opts).ok());
  std::vector<std::string> lines;
  {
    std::ifstream in(store);
    std::string l;
    while (std::getline(in, l)) lines.push_back(l);
  }
  {
    const std::string stampText =
        R"("schema":"dresar-bench-results/v7","scale":"tiny","trace_refs":20000,)";
    std::ofstream out(store, std::ios::trunc);
    for (std::string& l : lines) {
      const std::size_t at = l.find(stampText);
      ASSERT_NE(at, std::string::npos) << l;
      out << l.erase(at, stampText.size()) << "\n";
    }
  }
  opts.resumeFrom = {store.string()};
  try {
    (void)runCampaign(jobs, opts);
    FAIL() << "an unstamped store must not resume";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ran at schema=(none) scale= trace_refs=0"), std::string::npos) << what;
    EXPECT_NE(what.find("schema=dresar-bench-results/v7 scale=tiny trace_refs=20000"),
              std::string::npos)
        << what;
  }
  std::filesystem::remove(store);
}

TEST(Campaign, RejectsOutOfRangeShard) {
  CampaignOptions opts;
  opts.shardIndex = 2;
  opts.shardCount = 2;
  EXPECT_THROW((void)runCampaign(tinyMatrix(), opts), std::runtime_error);
}

}  // namespace
}  // namespace dresar::harness

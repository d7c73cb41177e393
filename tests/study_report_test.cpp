// Study reports (harness/study_report.h) and the study specs that feed them:
// every report renders from a tiny run of its committed spec, and renders
// the same text from cells resumed out of a job store; a report whose cells
// a spec lacks is caught before any simulation, each study spec expands to a
// pinned job list, and dresar-sweep rejects report misuse with exit status 2.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "harness/campaign.h"
#include "harness/run_context.h"
#include "harness/study_report.h"
#include "harness/sweep_spec.h"
#include "interconnect/message.h"

namespace dresar::harness {
namespace {

SweepSpec studySpec(const std::string& name) {
  return SweepSpec::parseFile(std::string(DRESAR_SWEEPS_DIR) + "/" + name + ".spec");
}

/// FNV-1a over the spec's "APP tag seed" lines, '\n'-joined.
std::uint64_t expansionDigest(const std::vector<JobSpec>& jobs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i > 0) h = (h ^ '\n') * 0x100000001b3ULL;
    const std::string row = jobs[i].displayApp() + " " + jobs[i].configTag() + " " +
                            std::to_string(jobs[i].seed);
    for (const char c : row) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

struct StudyPin {
  const char* spec;
  std::size_t jobs;
  std::uint64_t digest;
};

// The study specs have no counterpart on older revisions to compare --list
// against, so their expansions are pinned here.
TEST(StudySpecs, ExpandAsPinned) {
  const StudyPin pins[] = {
      {"traffic_tail", 20, 0x01886875797079f1ULL},
      {"ablation_assoc", 10, 0x39d52ae73af9713aULL},
      {"ablation_pending_buffer", 4, 0xfed31981b59ea59dULL},
      {"ablation_snoop_inval", 6, 0xa2ac2d48049c3602ULL},
      {"ablation_switch_cache", 16, 0xdc60f515a0694c01ULL},
      {"ablation_network", 18, 0x4f8f11e9132cbd73ULL},
      {"validation", 12, 0x156701577d33340bULL},
      {"flit_buffers", 5, 0x7d1b216d975bb7dbULL},
  };
  for (const StudyPin& p : pins) {
    const SweepSpec s = studySpec(p.spec);
    const std::vector<JobSpec> jobs = s.expand();
    EXPECT_EQ(jobs.size(), p.jobs) << p.spec;
    EXPECT_EQ(s.expand().size(), p.jobs) << p.spec;
    EXPECT_EQ(expansionDigest(jobs), p.digest) << p.spec;
  }
}

struct Study {
  const char* spec;
  std::vector<std::string> reports;
  std::vector<std::string> titles;  ///< one line each report must print
};

TEST(StudyReports, EachRendersFromATinyRunOfItsSpec) {
  const Study studies[] = {
      {"fig8",
       {"fig1", "fig8", "fig9", "fig10", "fig11", "table1", "table2", "table3"},
       {"Figure 1: Fraction of Clean vs. Dirty", "Figure 8: Reduction in Home Node CtoC",
        "Figure 9: Reduction in the Average Read Latency",
        "Figure 10: Reduction in the Read Stall Time", "Figure 11: Execution Time Reduction",
        "Table 1: Messages Relevant", "Table 2: Execution-Driven", "Table 3: Trace-Driven"}},
      {"scaling", {"scaling"}, {"Scaling: C2C Read-Latency Reduction"}},
      {"traffic_tail", {"traffic"}, {"Multi-tenant traffic:"}},
      {"ablation_assoc", {"assoc"}, {"Ablation: switch-directory associativity"}},
      {"ablation_pending_buffer", {"pending_buffer"}, {"Ablation: pending buffer"}},
      {"ablation_snoop_inval", {"snoop_inval"}, {"Ablation: invalidation snooping"}},
      {"ablation_switch_cache", {"switch_cache"}, {"Extension: switch directory + switch"}},
      {"ablation_network", {"network"}, {"Ablation: network timing sensitivity (SOR)"}},
      {"validation", {"validation"}, {"Validation: flit-level wormhole"}},
      {"flit_buffers", {"flit_buffers"}, {"Buffer-depth sensitivity under the flit"}},
  };
  for (const Study& st : studies) {
    SweepSpec s = studySpec(st.spec);
    s.overrideScale("tiny");
    s.traceRefs = 20'000;
    const std::vector<JobSpec> jobs = s.expand();
    ASSERT_TRUE(missingReportCells(st.reports, s, jobs).empty()) << st.spec;
    const std::vector<JobResult> results = runJobs(jobs, 2);
    for (const JobResult& r : results) ASSERT_TRUE(r.ok) << st.spec << ": " << r.error;
    const std::string text = renderReports(st.reports, s, results);
    for (const std::string& title : st.titles) {
      EXPECT_NE(text.find(title), std::string::npos) << st.spec << " lacks '" << title << "'";
    }
    // Same results, same text: a report reads nothing but the results.
    EXPECT_EQ(text, renderReports(st.reports, s, results)) << st.spec;
  }
}

TEST(StudyReports, Table1CountsEveryMessageType) {
  SweepSpec s = studySpec("fig8");
  s.overrideScale("tiny");
  s.workloads = {"sor"};
  s.entries = {1024};
  const std::vector<JobResult> results = runJobs(s.expand(), 1);
  const std::string text = renderReports({"table1"}, s, results);
  // The per-type counts are the network's own counters, so they sum to the
  // run's message total (SharerNotify needs a switch cache, which is off).
  const RunRecord& rec = results.at(0).record;
  double sum = 0;
  std::size_t types = 0;
  for (const auto& [name, n] : rec.metrics) {
    if (name.rfind("msgs_", 0) != 0) continue;
    sum += n;
    ++types;
  }
  EXPECT_EQ(types, kMsgTypeCount);
  EXPECT_EQ(sum, rec.value("net_messages"));
  EXPECT_NE(text.find("ReadRequest"), std::string::npos);
}

TEST(StudyReports, ResumedStoreRendersLikeTheFreshRun) {
  // Reports read only run records, so a campaign whose every cell comes
  // back from its job store prints the fresh campaign's text.
  SweepSpec s = studySpec("fig8");
  s.overrideScale("tiny");
  s.traceRefs = 20'000;
  const std::vector<std::string> reports = {"fig1",  "fig8",   "fig9",   "fig10",
                                            "fig11", "table1", "table2", "table3"};
  const std::filesystem::path store =
      std::filesystem::temp_directory_path() / "dresar_report_resume.jobs";
  CampaignOptions opts;
  opts.threads = 2;
  opts.storePath = store.string();
  const CampaignResult fresh = runCampaign(s.expand(), opts);
  ASSERT_TRUE(fresh.ok());
  opts.resumeFrom = {store.string()};
  const CampaignResult resumed = runCampaign(s.expand(), opts);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(resumed.resumed, s.expand().size());
  EXPECT_EQ(renderReports(reports, s, resumed.results), renderReports(reports, s, fresh.results));
  std::filesystem::remove(store);
}

TEST(StudyReports, MissingCellNamesWorkloadAndConfig) {
  std::istringstream in(
      "name = no_base\n"
      "workloads = fft, tpcc\n"
      "entries = 1024\n");
  const SweepSpec s = SweepSpec::parse(in, "no_base.spec");
  const std::vector<std::string> errs = missingReportCells({"fig8"}, s, s.expand());
  ASSERT_EQ(errs.size(), 2u);
  EXPECT_NE(errs[0].find("report fig8 needs workload fft, config base"), std::string::npos)
      << errs[0];
  EXPECT_NE(errs[0].find("no_base"), std::string::npos) << errs[0];
  EXPECT_NE(errs[1].find("workload tpcc, config base"), std::string::npos) << errs[1];
  // The config-only tables read no cells.
  EXPECT_TRUE(missingReportCells({"table2", "table3"}, s, s.expand()).empty());
  EXPECT_TRUE(isConfigOnlyReport("table2"));
  EXPECT_FALSE(isConfigOnlyReport("fig8"));
}

TEST(StudyReports, ReportsNeedTheirWorkloads) {
  std::istringstream in(
      "workloads = oltp\n"
      "entries = 0, 1024\n");
  const SweepSpec s = SweepSpec::parse(in, "traffic_only.spec");
  EXPECT_FALSE(missingReportCells({"fig1"}, s, s.expand()).empty());
  EXPECT_FALSE(missingReportCells({"scaling"}, s, s.expand()).empty());
  EXPECT_TRUE(missingReportCells({"traffic"}, s, s.expand()).empty());
}

// ------------------------------------------------------ dresar-sweep CLI --

/// Exit status of dresar-sweep run with `args`, output discarded.
int sweepExit(const std::string& args) {
  const std::string cmd =
      std::string(DRESAR_SWEEP_BIN) + " " + args + " > /dev/null 2> /dev/null";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SweepCli, ReportMisuseExitsTwo) {
  const std::string fig8 = std::string("--spec=") + DRESAR_SWEEPS_DIR + "/fig8.spec";
  const std::string noBase =
      std::string("--spec=") + DRESAR_SWEEPS_DIR + "/ablation_snoop_inval.spec";
  EXPECT_EQ(sweepExit(fig8 + " --report=fig99"), 2);
  EXPECT_EQ(sweepExit(fig8 + " --trace=unused.json --resume --store=unused.jobs"), 2);
  EXPECT_EQ(sweepExit(fig8 + " --trace=unused.json --merge=a.jobs"), 2);
  EXPECT_EQ(sweepExit(fig8 + " --trace=unused.json --shard=0/2"), 2);
  // A shard lacks cells a report reads.
  EXPECT_EQ(sweepExit(fig8 + " --report=fig8 --shard=0/2"), 2);
  // Reports fold over records, so resumed and merged cells render too.
  const std::string store =
      (std::filesystem::temp_directory_path() / "dresar_cli_report.jobs").string();
  EXPECT_EQ(sweepExit(fig8 + " --quick --report=fig8 --resume --store=" + store), 0);
  EXPECT_EQ(sweepExit(fig8 + " --quick --report=fig8 --merge=" + store), 0);
  std::filesystem::remove(store);
  // A missing cell fails before any job runs.
  EXPECT_EQ(sweepExit(noBase + " --report=fig8"), 2);
  // Config-only reports run no job.
  EXPECT_EQ(sweepExit(fig8 + " --report=table2,table3"), 0);
}

}  // namespace
}  // namespace dresar::harness

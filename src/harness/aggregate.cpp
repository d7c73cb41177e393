#include "harness/aggregate.h"

#include <cmath>
#include <sstream>

#include "sim/json_writer.h"

namespace dresar::harness {

MetricSummary summarize(const std::vector<double>& xs) {
  MetricSummary s;
  if (xs.empty()) return s;
  s.count = xs.size();
  s.min = xs.front();
  s.max = xs.front();
  double sum = 0.0;
  for (const double x : xs) {
    sum += x;
    if (x < s.min) s.min = x;
    if (x > s.max) s.max = x;
  }
  s.mean = sum / static_cast<double>(xs.size());
  double sq = 0.0;
  for (const double x : xs) sq += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(sq / static_cast<double>(xs.size()));
  return s;
}

std::vector<ConfigAggregate> aggregate(const std::vector<RunRecord>& runs) {
  std::vector<ConfigAggregate> out;
  std::size_t i = 0;
  while (i < runs.size()) {
    // Runs are canonically sorted, so a cell's replicas are contiguous.
    std::size_t j = i;
    while (j < runs.size() && runs[j].app == runs[i].app && runs[j].config == runs[i].config &&
           runs[j].kind == runs[i].kind) {
      ++j;
    }
    ConfigAggregate agg;
    agg.app = runs[i].app;
    agg.config = runs[i].config;
    agg.kind = runs[i].kind;
    agg.sdEntries = runs[i].sdEntries;
    agg.replicas = j - i;
    for (const auto& [name, first] : runs[i].metrics) {
      std::vector<double> xs;
      xs.reserve(j - i);
      xs.push_back(first);
      for (std::size_t k = i + 1; k < j; ++k) {
        for (const auto& [n2, v2] : runs[k].metrics) {
          if (n2 == name) {
            xs.push_back(v2);
            break;
          }
        }
      }
      agg.metrics.emplace_back(name, summarize(xs));
    }
    out.push_back(std::move(agg));
    i = j;
  }
  return out;
}

std::string sweepToJson(const std::vector<RunRecord>& runs,
                        const std::vector<ConfigAggregate>& configs, const SweepJsonOptions& opts) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  w.field("schema", kSweepSchema);
  w.field("bench", "dresar-sweep");
  w.field("spec", opts.specName);
  w.key("options");
  w.beginObject();
  for (const auto& [k, v] : opts.options) w.field(k, v);
  w.endObject();
  if (!opts.deterministic) {
    // Worker count and wall time describe the machine, not the experiment;
    // deterministic mode drops them so any --jobs=N serializes identically.
    w.field("jobs", static_cast<std::uint64_t>(opts.jobs));
    double wallTotal = 0.0;
    for (const RunRecord& r : runs) wallTotal += r.wallSeconds;
    w.field("wall_seconds_total", wallTotal);
  }

  w.key("runs");
  w.beginArray();
  const RecordForm form =
      opts.deterministic ? RecordForm::DeterministicDocument : RecordForm::Document;
  for (const RunRecord& r : runs) writeRunRecord(w, r, form);
  w.endArray();

  w.key("configs");
  w.beginArray();
  for (const ConfigAggregate& c : configs) {
    w.beginObject();
    w.field("app", c.app);
    w.field("config", c.config);
    w.field("kind", c.kind);
    w.field("sd_entries", c.sdEntries);
    w.field("replicas", c.replicas);
    w.key("metrics");
    w.beginObject();
    for (const auto& [name, s] : c.metrics) {
      w.key(name);
      w.beginObject();
      w.field("mean", s.mean);
      w.field("stddev", s.stddev);
      w.field("min", s.min);
      w.field("max", s.max);
      w.endObject();
    }
    w.endObject();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  os << '\n';
  return os.str();
}

}  // namespace dresar::harness

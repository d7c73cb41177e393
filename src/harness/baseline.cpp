#include "harness/baseline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <ostream>

#include "sim/json_reader.h"

namespace dresar::harness {

const std::vector<std::string>& watchedMetrics() {
  static const std::vector<std::string> watched = {
      "exec_time",        "avg_read_latency",  "total_read_stall",
      "p99_read_latency", "p999_read_latency",
  };
  return watched;
}

namespace {

std::string cellKey(const std::string& app, const std::string& config, const std::string& kind) {
  return app + "\x1f" + config + "\x1f" + kind;
}

/// Read a result document's pre-aggregated "configs" array.
std::vector<ConfigAggregate> fromConfigs(const JsonValue& configs) {
  std::vector<ConfigAggregate> out;
  for (const JsonValue& c : configs.asArray()) {
    ConfigAggregate agg;
    agg.app = c.at("app").asString();
    agg.config = c.at("config").asString();
    agg.kind = c.at("kind").asString();
    if (const JsonValue* sd = c.find("sd_entries"); sd != nullptr) {
      agg.sdEntries = static_cast<std::uint64_t>(sd->asNumber());
    }
    if (const JsonValue* rep = c.find("replicas"); rep != nullptr) {
      agg.replicas = static_cast<std::uint64_t>(rep->asNumber());
    }
    for (const auto& [name, v] : c.at("metrics").asObject()) {
      MetricSummary s;
      s.count = agg.replicas != 0 ? agg.replicas : 1;
      s.mean = v.at("mean").asNumber();
      if (const JsonValue* sd2 = v.find("stddev"); sd2 != nullptr) s.stddev = sd2->asNumber();
      if (const JsonValue* mn = v.find("min"); mn != nullptr) s.min = mn->asNumber();
      if (const JsonValue* mx = v.find("max"); mx != nullptr) s.max = mx->asNumber();
      agg.metrics.emplace_back(name, s);
    }
    out.push_back(std::move(agg));
  }
  return out;
}

}  // namespace

std::vector<ConfigAggregate> loadBaseline(const std::string& jsonText) {
  return fromConfigs(JsonValue::parse(jsonText).at("configs"));
}

std::vector<ConfigAggregate> loadBaselineFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  return loadBaseline(std::string(std::istreambuf_iterator<char>(in), {}));
}

RegressionReport compareAgainstBaseline(const std::vector<ConfigAggregate>& baseline,
                                        const std::vector<ConfigAggregate>& current,
                                        double thresholdPct) {
  RegressionReport report;
  report.thresholdPct = thresholdPct;

  std::map<std::string, const ConfigAggregate*> baseByKey;
  for (const ConfigAggregate& b : baseline) {
    baseByKey[cellKey(b.app, b.config, b.kind)] = &b;
  }
  std::map<std::string, bool> baseSeen;

  for (const ConfigAggregate& cur : current) {
    const std::string key = cellKey(cur.app, cur.config, cur.kind);
    const auto it = baseByKey.find(key);
    if (it == baseByKey.end()) {
      report.missingInBaseline.push_back(cur.app + "/" + cur.config);
      continue;
    }
    baseSeen[key] = true;
    const ConfigAggregate& base = *it->second;

    // Flatten the means and reuse the shared compare helper.
    std::vector<std::pair<std::string, double>> baseMeans;
    std::vector<std::pair<std::string, double>> curMeans;
    for (const auto& [n, s] : base.metrics) baseMeans.emplace_back(n, s.mean);
    for (const auto& [n, s] : cur.metrics) curMeans.emplace_back(n, s.mean);
    for (const MetricDelta& d : compareMetrics(baseMeans, curMeans)) {
      if (std::find(watchedMetrics().begin(), watchedMetrics().end(), d.name) ==
          watchedMetrics().end()) {
        continue;
      }
      RegressionItem item;
      item.app = cur.app;
      item.config = cur.config;
      item.metric = d.name;
      item.baseline = d.baseline;
      item.current = d.current;
      item.pct = d.pct;
      item.regression = d.pct > thresholdPct;
      report.items.push_back(std::move(item));
    }
  }
  for (const ConfigAggregate& b : baseline) {
    if (baseSeen.find(cellKey(b.app, b.config, b.kind)) == baseSeen.end()) {
      report.missingInCurrent.push_back(b.app + "/" + b.config);
    }
  }
  return report;
}

void RegressionReport::print(std::ostream& os) const {
  os << "baseline comparison (" << items.size() << " watched-metric cells, threshold +"
     << thresholdPct << "%)\n";
  std::vector<const RegressionItem*> sorted;
  sorted.reserve(items.size());
  for (const RegressionItem& i : items) sorted.push_back(&i);
  std::stable_sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    if (a->regression != b->regression) return a->regression;
    return std::fabs(a->pct) > std::fabs(b->pct);
  });
  const std::size_t shown = std::min<std::size_t>(sorted.size(), regressions() + 10);
  for (std::size_t i = 0; i < shown; ++i) {
    const RegressionItem& it = *sorted[i];
    char buf[256];
    std::snprintf(buf, sizeof buf, "  %s %-10s %-10s %-18s %14.2f -> %14.2f  %+7.2f%%\n",
                  it.regression ? "REGRESSION" : "          ", it.app.c_str(),
                  it.config.c_str(), it.metric.c_str(), it.baseline, it.current, it.pct);
    os << buf;
  }
  if (!missingInBaseline.empty()) {
    os << "  note: " << missingInBaseline.size() << " config(s) absent from baseline (skipped)\n";
  }
  if (!missingInCurrent.empty()) {
    os << "  note: " << missingInCurrent.size() << " baseline config(s) not in this sweep\n";
  }
  os << (ok() ? "  OK: no watched metric regressed beyond threshold\n"
              : "  FAIL: " + std::to_string(regressions()) + " regression(s)\n");
}

}  // namespace dresar::harness

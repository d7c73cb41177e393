// Baseline comparison — the regression gate. Loads the "configs" array of a
// prior sweep document (its "configs" array reads the same in every schema
// version), matches config cells by (app, config, kind) against the current
// aggregates, and flags any watched metric whose mean worsened beyond the
// threshold. Watched metrics are latency/cycle-count quantities where higher
// is strictly worse; throughput-like counters are reported but never gate.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/aggregate.h"

namespace dresar::harness {

/// Metrics the gate fails on (higher = worse), checked when present.
const std::vector<std::string>& watchedMetrics();

struct RegressionItem {
  std::string app;
  std::string config;
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  double pct = 0.0;      ///< signed change, + = worse
  bool regression = false;  ///< pct > threshold on a watched metric
};

struct RegressionReport {
  double thresholdPct = 5.0;
  std::vector<RegressionItem> items;      ///< watched-metric comparisons only
  std::vector<std::string> missingInBaseline;  ///< configs the baseline lacks
  std::vector<std::string> missingInCurrent;   ///< baseline configs we did not run

  [[nodiscard]] bool ok() const {
    for (const RegressionItem& i : items) {
      if (i.regression) return false;
    }
    return true;
  }
  [[nodiscard]] std::size_t regressions() const {
    std::size_t n = 0;
    for (const RegressionItem& i : items) n += i.regression ? 1 : 0;
    return n;
  }

  /// Human-readable summary (regressions first, then the largest movers).
  void print(std::ostream& os) const;
};

/// Parse a baseline result document (file contents) into per-config
/// metrics, from its "configs" array. Throws std::runtime_error on malformed
/// input.
std::vector<ConfigAggregate> loadBaseline(const std::string& jsonText);
std::vector<ConfigAggregate> loadBaselineFile(const std::string& path);

/// Compare current aggregates against the baseline.
RegressionReport compareAgainstBaseline(const std::vector<ConfigAggregate>& baseline,
                                        const std::vector<ConfigAggregate>& current,
                                        double thresholdPct);

}  // namespace dresar::harness

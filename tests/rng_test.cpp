#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

namespace dresar {
namespace {

/// Pearson chi-squared statistic for observed counts vs expected counts.
double chiSquared(const std::vector<std::uint64_t>& obs, const std::vector<double>& exp) {
  double chi2 = 0.0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const double d = static_cast<double>(obs[i]) - exp[i];
    chi2 += d * d / exp[i];
  }
  return chi2;
}

/// Loose upper bound on the chi-squared critical value: mean + 5 sigma
/// (df + 5*sqrt(2*df)), far beyond the p=0.001 quantile for the df used here.
/// With fixed seeds the draws are deterministic, so this cannot flake — it
/// regresses only if below()/sample() become genuinely non-uniform (e.g. the
/// old `next() % bound` bias at adversarial bounds).
double chi2Bound(std::size_t df) {
  return static_cast<double>(df) + 5.0 * std::sqrt(2.0 * static_cast<double>(df));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(r.below(10), 10u);
  }
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  Rng r(123);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (r.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BelowPassesChiSquaredUniformity) {
  for (const std::uint64_t bound : {3ull, 7ull, 10ull, 97ull, 1000ull}) {
    Rng r(0xDEADBEEFull + bound);
    const int n = 200'000;
    std::vector<std::uint64_t> counts(bound, 0);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t v = r.below(bound);
      ASSERT_LT(v, bound);
      ++counts[v];
    }
    const std::vector<double> expected(bound, static_cast<double>(n) / static_cast<double>(bound));
    EXPECT_LT(chiSquared(counts, expected), chi2Bound(bound - 1)) << "bound=" << bound;
  }
}

TEST(Rng, BelowCoversFullRangeNearPowerOfTwo) {
  // Bounds adjacent to 2^k exercise the rejection path's threshold math.
  for (const std::uint64_t bound : {(1ull << 32) - 1, (1ull << 32) + 1}) {
    Rng r(11);
    std::uint64_t mx = 0;
    for (int i = 0; i < 10'000; ++i) {
      const std::uint64_t v = r.below(bound);
      ASSERT_LT(v, bound);
      mx = std::max(mx, v);
    }
    EXPECT_GT(mx, bound / 2);  // draws reach the upper half
  }
}

TEST(Zipf, HeadIsHotterThanTail) {
  ZipfSampler z(1000, 1.0);
  EXPECT_GT(z.pmf(0), z.pmf(10));
  EXPECT_GT(z.pmf(10), z.pmf(500));
}

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler z(100, 0.8);
  double total = 0.0;
  for (std::size_t i = 0; i < 100; ++i) total += z.pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, SamplingMatchesPmf) {
  ZipfSampler z(50, 1.0);
  Rng r(99);
  std::vector<int> counts(50, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, z.pmf(0), 0.02);
  // Monotone-ish head.
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[5], counts[30]);
}

TEST(Zipf, SamplingPassesChiSquaredAgainstPmf) {
  ZipfSampler z(50, 1.0);
  Rng r(4242);
  const int n = 200'000;
  std::vector<std::uint64_t> counts(z.size(), 0);
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  std::vector<double> expected(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) expected[i] = n * z.pmf(i);
  EXPECT_LT(chiSquared(counts, expected), chi2Bound(z.size() - 1));
}

TEST(Zipf, RejectsEmpty) { EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument); }

/// The sampler's CDF, rebuilt with the same arithmetic as its constructor,
/// and the full-array binary search the guide table must reproduce.
std::vector<double> zipfCdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (auto& v : cdf) v /= total;
  return cdf;
}

std::size_t fullSearchRank(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? cdf.size() - 1 : static_cast<std::size_t>(it - cdf.begin());
}

TEST(Zipf, GuidedRankEqualsFullBinarySearch) {
  struct Case {
    std::size_t n;
    double s;
  };
  for (const Case c : {Case{1, 1.0}, Case{3, 0.5}, Case{2047, 0.9}, Case{2049, 0.9},
                       Case{60000, 1.1}}) {
    SCOPED_TRACE(c.n);
    const ZipfSampler z(c.n, c.s);
    const std::vector<double> cdf = zipfCdf(c.n, c.s);
    std::size_t mismatches = 0;
    const auto check = [&](double u) {
      if (u < 0.0 || u >= 1.0) return;
      if (z.rankFor(u) != fullSearchRank(cdf, u)) ++mismatches;
    };
    // Every bucket edge k/K and both its neighbours, for K up to the cap.
    const std::size_t buckets = std::min(std::bit_ceil(c.n), ZipfSampler::kMaxGuideBuckets);
    for (std::size_t k = 0; k <= buckets; ++k) {
      const double edge = static_cast<double>(k) / static_cast<double>(buckets);
      check(edge);
      check(std::nextafter(edge, 0.0));
      check(std::nextafter(edge, 1.0));
    }
    // Every CDF value and its neighbours: where lower_bound changes its answer.
    for (const double v : cdf) {
      check(v);
      check(std::nextafter(v, 0.0));
      check(std::nextafter(v, 1.0));
    }
    Rng r(c.n);
    for (int i = 0; i < 1'000'000; ++i) check(r.uniform());
    EXPECT_EQ(mismatches, 0u);
  }
}

}  // namespace
}  // namespace dresar

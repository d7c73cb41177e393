// Deterministic pseudo-random generators used by workload/trace generators.
// We avoid std::uniform_int_distribution in hot paths because its output is
// not specified to be identical across standard library implementations;
// reproducibility of traces matters for the experiment harnesses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace dresar {

/// SplitMix64 — tiny, fast, well-distributed; used to seed and to draw.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound). bound must be > 0. Lemire multiply-shift with
  /// rejection: `next() % bound` over-weights small residues whenever bound
  /// does not divide 2^64; this draws from the unbiased distribution at the
  /// cost of one widening multiply (rejection is astronomically rare for the
  /// small bounds used here).
  std::uint64_t below(std::uint64_t bound) {
    unsigned __int128 m = static_cast<unsigned __int128>(next()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;  // 2^64 mod bound
      while (lo < threshold) {
        m = static_cast<unsigned __int128>(next()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// True with probability p.
  bool chance(double p) { return uniform() < p; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) sampler over ranks [0, n) with precomputed CDF; rank 0 is the
/// hottest. Used by the synthetic TPC trace generators (Figure 2 shape).
///
/// A draw is the CDF's lower_bound of a uniform u. A guide table of K
/// buckets (K a power of two, at most kMaxGuideBuckets) holds the
/// lower_bound of every k/K, so the binary search runs only inside bucket
/// floor(u*K). u is a multiple of 2^-53, so u*K and k/K are exact and the
/// bucket always brackets the full-CDF answer: the rank is the same as a
/// plain binary search over the whole CDF, in about log2(n/K) probes.
///
/// The tables are immutable once built, and copies share them: models that
/// draw from the same (n, s) build it once (TrafficSamplers). A draw reads
/// the tables through pointers cached in the sampler, no deeper than a
/// vector's data pointer.
class ZipfSampler {
 public:
  static constexpr std::size_t kMaxGuideBuckets = 2048;

  ZipfSampler(std::size_t n, double s);
  /// Draw a rank in [0, n).
  std::size_t sample(Rng& rng) const { return rankFor(rng.uniform()); }
  /// The rank a uniform draw u in [0, 1) maps to: the first rank whose CDF
  /// is >= u (the last rank if none is).
  [[nodiscard]] std::size_t rankFor(double u) const;
  [[nodiscard]] std::size_t size() const { return n_; }
  /// The Zipf exponent s the tables were built for.
  [[nodiscard]] double exponent() const { return s_; }
  /// Probability mass of rank r.
  [[nodiscard]] double pmf(std::size_t r) const;

 private:
  struct Tables {
    std::vector<double> cdf;
    std::vector<std::uint32_t> guide;  ///< guide[k] = lower_bound(cdf, k/K)
  };
  std::shared_ptr<const Tables> tables_;  ///< shared by every copy
  const double* cdf_ = nullptr;           ///< tables_->cdf.data()
  const std::uint32_t* guide_ = nullptr;  ///< tables_->guide.data()
  std::uint32_t n_ = 0;                   ///< ranks (CDF entries)
  std::uint32_t guideSize_ = 0;           ///< K
  double buckets_ = 1.0;                  ///< K, as a double
  double s_ = 0.0;
};

}  // namespace dresar

// Lightweight statistics: named counters, scalar samples and histograms with
// a registry for formatted dumps. No global state; each simulation owns one
// StatRegistry so parallel sweeps in one process never interfere.
//
// Hot-path discipline: components resolve CounterHandle / SamplerHandle
// objects once at construction (a string lookup that also registers the name
// for dumps), then bump through the cached pointer with zero per-event
// string work. The dotted-name registry remains the source of truth for
// dump(), counterValue() and sumByPrefix().
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"

namespace dresar {

/// Accumulates count/sum/min/max of a stream of samples (e.g. read latency).
class Sampler {
 public:
  void add(double v) {
    if (count_ == 0 || v < min_) min_ = v;
    if (count_ == 0 || v > max_) max_ = v;
    sum_ += v;
    ++count_;
  }
  /// `n` samples of `v` at once: the same state as n add(v) calls whenever
  /// the sums are exact (integral samples below 2^53, e.g. occupancy counts).
  void add(double v, std::uint64_t n) {
    if (n == 0) return;
    if (count_ == 0 || v < min_) min_ = v;
    if (count_ == 0 || v > max_) max_ = v;
    sum_ += v * static_cast<double>(n);
    count_ += n;
  }
  void merge(const Sampler& o) {
    if (o.count_ == 0) return;
    if (count_ == 0 || o.min_ < min_) min_ = o.min_;
    if (count_ == 0 || o.max_ > max_) max_ = o.max_;
    sum_ += o.sum_;
    count_ += o.count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  void reset() { *this = Sampler{}; }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bucket histogram with log2-spaced buckets plus one overflow bucket.
///
/// Equal-width buckets would clamp heavy-tailed percentiles: p99/p99.9 of a
/// latency distribution spanning 8..100k cycles lands in the overflow bucket
/// unless the range is absurdly wide. Log2 buckets cover the same span in a
/// few dozen buckets with bounded relative error (each bucket's upper bound
/// is 2x its lower bound).
class Histogram {
 public:
  /// Geometry: bucket 0 covers [0, firstBound), bucket i>0 covers
  /// [firstBound*2^(i-1), firstBound*2^i).
  struct LogSpaced {
    double firstBound = 1.0;
    std::size_t buckets = 10;
  };

  /// The default geometry: 10 bounded buckets from 1 and the overflow.
  Histogram() : Histogram(LogSpaced{}) {}
  explicit Histogram(LogSpaced g) : firstBound_(g.firstBound), counts_(g.buckets + 1, 0) {}

  /// Count `n` samples of `v` (default one).
  void add(double v, std::uint64_t n = 1);
  /// Fold another histogram's counts in. The geometries must be identical
  /// (same firstBound and bucket count); throws std::invalid_argument
  /// otherwise.
  void merge(const Histogram& o);
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const { return counts_; }
  /// Samples that fell beyond the last bounded bucket.
  [[nodiscard]] std::uint64_t overflowCount() const { return counts_.back(); }
  /// Negative samples, counted into the first bucket (clamped at zero).
  [[nodiscard]] std::uint64_t underflowCount() const { return underflows_; }
  /// Upper bound of bounded bucket `i` (defined for i < buckets().size()-1).
  [[nodiscard]] double bucketBound(std::size_t i) const {
    return std::ldexp(firstBound_, static_cast<int>(i));
  }
  /// Upper bound of the bounded range; percentile() never reports beyond it.
  [[nodiscard]] double overflowBound() const { return bucketBound(counts_.size() - 2); }
  /// Value below which `fraction` (in [0,1]) of samples fall (bucket upper
  /// bound approximation). fraction == 0 returns 0.0; a percentile landing in
  /// the overflow bucket is clamped to overflowBound() — callers can detect
  /// the clamp via percentileOverflowed().
  [[nodiscard]] double percentile(double fraction) const;
  /// True when percentile(fraction) landed in the overflow bucket, i.e. the
  /// returned value is a lower bound on the true percentile.
  [[nodiscard]] bool percentileOverflowed(double fraction) const;

 private:
  /// Index of the bucket holding the `fraction` percentile, or SIZE_MAX for
  /// "no samples / fraction == 0".
  [[nodiscard]] std::size_t percentileBucket(double fraction) const;

  double firstBound_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflows_ = 0;
};

/// Pre-resolved reference to a registry counter. Cheap to copy; bumping is a
/// single pointer-chase. Stays valid for the registry's lifetime (element
/// addresses in std::map are stable, and StatRegistry::reset() zeroes values
/// in place instead of erasing them).
class CounterHandle {
 public:
  CounterHandle() = default;

  CounterHandle& operator++() {
    ++*p_;
    return *this;
  }
  CounterHandle& operator+=(std::uint64_t v) {
    *p_ += v;
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return p_ ? *p_ : 0; }
  [[nodiscard]] bool valid() const { return p_ != nullptr; }

 private:
  friend class StatRegistry;
  explicit CounterHandle(std::uint64_t* p) : p_(p) {}
  std::uint64_t* p_ = nullptr;
};

/// Pre-resolved reference to a registry sampler (same lifetime rules as
/// CounterHandle).
class SamplerHandle {
 public:
  SamplerHandle() = default;

  void add(double v) { p_->add(v); }
  [[nodiscard]] const Sampler* get() const { return p_; }
  [[nodiscard]] bool valid() const { return p_ != nullptr; }

 private:
  friend class StatRegistry;
  explicit SamplerHandle(Sampler* p) : p_(p) {}
  Sampler* p_ = nullptr;
};

/// A hierarchical name -> value registry. Components register counters under
/// dotted paths ("switch.2.dresar.hits"); dumps are sorted and stable.
class StatRegistry {
 public:
  /// Returns a reference to a named 64-bit counter, creating it at zero.
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  /// Returns a named sampler, creating it empty.
  Sampler& sampler(const std::string& name) { return samplers_[name]; }

  /// Resolve a counter once (creating it at zero) and return a handle for
  /// string-free hot-path bumps.
  [[nodiscard]] CounterHandle counterHandle(const std::string& name) {
    return CounterHandle(&counters_[name]);
  }
  /// Resolve a sampler once (creating it empty) and return a handle.
  [[nodiscard]] SamplerHandle samplerHandle(const std::string& name) {
    return SamplerHandle(&samplers_[name]);
  }

  [[nodiscard]] std::uint64_t counterValue(const std::string& name) const;
  [[nodiscard]] const Sampler* findSampler(const std::string& name) const;

  /// Sum of all counters whose name starts with `prefix`.
  [[nodiscard]] std::uint64_t sumByPrefix(const std::string& prefix) const;

  void dump(std::ostream& os) const;
  /// Zero every counter and empty every sampler, keeping registrations (and
  /// therefore outstanding handles) valid.
  void reset();

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const { return counters_; }
  [[nodiscard]] const std::map<std::string, Sampler>& samplers() const { return samplers_; }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Sampler> samplers_;
};

}  // namespace dresar

#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <stdexcept>

namespace dresar {

void Histogram::add(double v, std::uint64_t n) {
  // Clamp negatives into the first bucket *before* the size_t cast: a
  // negative quotient cast to size_t wraps to a huge index, which the
  // overflow clamp would then silently misfile into the overflow bucket.
  if (v < 0.0) {
    underflows_ += n;
    counts_[0] += n;
    total_ += n;
    return;
  }
  // Bucket 0 is [0, firstBound); bucket i>0 is [firstBound*2^(i-1),
  // firstBound*2^i). ilogb gives the binade in one instruction-ish step.
  std::size_t idx = 0;
  if (firstBound_ > 0 && v >= firstBound_) {
    idx = static_cast<std::size_t>(std::ilogb(v / firstBound_)) + 1;
  }
  if (idx >= counts_.size()) idx = counts_.size() - 1;
  counts_[idx] += n;
  total_ += n;
}

void Histogram::merge(const Histogram& o) {
  if (firstBound_ != o.firstBound_ || counts_.size() != o.counts_.size()) {
    throw std::invalid_argument("Histogram::merge: geometry mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  total_ += o.total_;
  underflows_ += o.underflows_;
}

std::size_t Histogram::percentileBucket(double fraction) const {
  if (total_ == 0) return std::size_t(-1);
  fraction = std::clamp(fraction, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(std::ceil(fraction * static_cast<double>(total_)));
  if (target == 0) return std::size_t(-1);  // fraction == 0: nothing falls below
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    running += counts_[i];
    if (running >= target) return i;
  }
  return counts_.size() - 1;  // unreachable: running == total_ >= target
}

double Histogram::percentile(double fraction) const {
  const std::size_t idx = percentileBucket(fraction);
  if (idx == std::size_t(-1)) return 0.0;
  if (idx == counts_.size() - 1) return overflowBound();  // clamped, not exact
  return bucketBound(idx);
}

bool Histogram::percentileOverflowed(double fraction) const {
  return percentileBucket(fraction) == counts_.size() - 1;
}

std::uint64_t StatRegistry::counterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const Sampler* StatRegistry::findSampler(const std::string& name) const {
  auto it = samplers_.find(name);
  return it == samplers_.end() ? nullptr : &it->second;
}

std::uint64_t StatRegistry::sumByPrefix(const std::string& prefix) const {
  std::uint64_t sum = 0;
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    sum += it->second;
  }
  return sum;
}

void StatRegistry::dump(std::ostream& os) const {
  for (const auto& [name, value] : counters_) {
    os << std::left << std::setw(48) << name << ' ' << value << '\n';
  }
  for (const auto& [name, s] : samplers_) {
    os << std::left << std::setw(48) << name << " count=" << s.count() << " mean=" << std::fixed
       << std::setprecision(2) << s.mean() << " min=" << s.min() << " max=" << s.max() << '\n';
  }
}

void StatRegistry::reset() {
  for (auto& [name, value] : counters_) value = 0;
  for (auto& [name, s] : samplers_) s.reset();
}

}  // namespace dresar

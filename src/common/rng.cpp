#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dresar {

ZipfSampler::ZipfSampler(std::size_t n, double s) : s_(s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("ZipfSampler: n must fit in 32 bits");
  auto t = std::make_shared<Tables>();
  std::vector<double>& cdf = t->cdf;
  cdf.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (auto& v : cdf) v /= total;

  // One linear pass: guide[k] is the first rank whose CDF is >= k/K.
  const std::size_t buckets = std::min(std::bit_ceil(n), kMaxGuideBuckets);
  buckets_ = static_cast<double>(buckets);
  t->guide.resize(buckets);
  std::size_t r = 0;
  for (std::size_t k = 0; k < buckets; ++k) {
    const double edge = static_cast<double>(k) / buckets_;
    while (r < n && cdf[r] < edge) ++r;
    t->guide[k] = static_cast<std::uint32_t>(r);
  }
  cdf_ = t->cdf.data();
  guide_ = t->guide.data();
  n_ = static_cast<std::uint32_t>(n);
  guideSize_ = static_cast<std::uint32_t>(buckets);
  tables_ = std::move(t);
}

std::size_t ZipfSampler::rankFor(double u) const {
  // lower_bound is monotone in u, so for u in [k/K, (k+1)/K) the answer lies
  // in [guide_[k], guide_[k+1]]; the last bucket is bounded by n.
  const auto k = static_cast<std::size_t>(u * buckets_);
  const std::size_t lo = guide_[k];
  const std::size_t hi = k + 1 < guideSize_ ? guide_[k + 1] : n_;
  const double* it = std::lower_bound(cdf_ + lo, cdf_ + hi, u);
  const auto rank = static_cast<std::size_t>(it - cdf_);
  return rank == n_ ? rank - 1 : rank;
}

double ZipfSampler::pmf(std::size_t r) const {
  if (r >= n_) return 0.0;
  return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
}

}  // namespace dresar

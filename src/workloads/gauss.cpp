// Gaussian elimination (no pivoting, diagonally dominant system) on an
// N x (N+1) augmented matrix. Rows are distributed cyclically for load
// balance; each iteration broadcasts the freshly reduced pivot row to every
// processor.
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "workloads/common.h"
#include "workloads/workload.h"

namespace dresar::workloads {

namespace {

class GaussWorkload final : public Workload {
 public:
  explicit GaussWorkload(std::size_t n) : n_(n), cols_(n + 1) {}

  [[nodiscard]] std::string name() const override { return "GAUSS"; }

  [[nodiscard]] std::size_t idx(std::size_t i, std::size_t j) const { return i * cols_ + j; }

  void setup(System& sys) override {
    barrier_ = makeBarrier(sys);
    a_ = SharedArray<double>(sys.mem(), n_ * cols_);
    orig_.assign(n_ * cols_, 0.0);
    Rng rng(0x6A55u);
    for (std::size_t i = 0; i < n_; ++i) {
      double rowSum = 0.0;
      for (std::size_t j = 0; j < n_; ++j) {
        if (i != j) {
          orig_[idx(i, j)] = rng.uniform() * 2.0 - 1.0;
          rowSum += std::abs(orig_[idx(i, j)]);
        }
      }
      orig_[idx(i, i)] = rowSum + 1.0;  // diagonally dominant => stable
      orig_[idx(i, n_)] = rng.uniform() * 10.0;  // rhs
    }
    for (std::size_t k = 0; k < orig_.size(); ++k) a_[k] = orig_[k];
  }

  SimTask body(System& sys, ThreadContext& ctx) override {
    const std::uint32_t p = sys.config().numNodes;
    for (std::size_t k = 0; k < n_; ++k) {
      // Eliminate column k from this processor's rows below the pivot.
      co_await ctx.load(a_.addr(idx(k, k)));
      const double pivot = a_[idx(k, k)];
      for (std::size_t i = k + 1; i < n_; ++i) {
        if (i % p != ctx.id()) continue;
        co_await ctx.load(a_.addr(idx(i, k)));
        const double factor = a_[idx(i, k)] / pivot;
        a_[idx(i, k)] = 0.0;
        co_await ctx.store(a_.addr(idx(i, k)));
        for (std::size_t j = k + 1; j < cols_; ++j) {
          co_await ctx.load(a_.addr(idx(k, j)));
          co_await ctx.load(a_.addr(idx(i, j)));
          a_[idx(i, j)] -= factor * a_[idx(k, j)];
          co_await ctx.store(a_.addr(idx(i, j)));
          co_await ctx.compute(6);
        }
      }
      co_await ctx.fence();
      co_await barrier_->arrive();
    }
  }

  [[nodiscard]] WorkloadResult verify(System&) override {
    // Back-substitute on the reduced matrix, then check A_orig * x = b.
    std::vector<double> x(n_, 0.0);
    for (std::size_t ii = n_; ii-- > 0;) {
      double s = a_[idx(ii, n_)];
      for (std::size_t j = ii + 1; j < n_; ++j) s -= a_[idx(ii, j)] * x[j];
      x[ii] = s / a_[idx(ii, ii)];
    }
    double maxResidual = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < n_; ++j) s += orig_[idx(i, j)] * x[j];
      maxResidual = std::max(maxResidual, std::abs(s - orig_[idx(i, n_)]));
    }
    if (maxResidual > 1e-8) {
      return {false, "gauss residual " + std::to_string(maxResidual)};
    }
    return {true, "residual " + std::to_string(maxResidual)};
  }

 private:
  std::size_t n_;
  std::size_t cols_;
  SharedArray<double> a_;
  std::vector<double> orig_;
  std::unique_ptr<HwBarrier> barrier_;
};

}  // namespace

std::unique_ptr<Workload> makeGauss(std::size_t n) { return std::make_unique<GaussWorkload>(n); }

}  // namespace dresar::workloads

// Red-black successive over-relaxation on an (N+2)x(N+2) grid with fixed
// boundary. Rows are block-partitioned; every sweep the first and last row
// of each partition are read by the neighbouring processor right after being
// written — the nearest-neighbour producer/consumer pattern behind SOR's
// high cache-to-cache fraction in Figure 1.
#include <cmath>
#include <vector>

#include "workloads/common.h"
#include "workloads/workload.h"

namespace dresar::workloads {

namespace {

class SorWorkload final : public Workload {
 public:
  SorWorkload(std::size_t n, std::size_t iters) : n_(n), iters_(iters) {}

  [[nodiscard]] std::string name() const override { return "SOR"; }

  [[nodiscard]] std::size_t idx(std::size_t i, std::size_t j) const { return i * (n_ + 2) + j; }

  void setup(System& sys) override {
    barrier_ = makeBarrier(sys);
    grid_ = SharedArray<double>(sys.mem(), (n_ + 2) * (n_ + 2));
    init_.assign((n_ + 2) * (n_ + 2), 0.0);
    // Hot left boundary, cold elsewhere; interior seeded with a ripple.
    for (std::size_t i = 0; i < n_ + 2; ++i) init_[idx(i, 0)] = 100.0;
    for (std::size_t i = 1; i <= n_; ++i) {
      for (std::size_t j = 1; j <= n_; ++j) {
        init_[idx(i, j)] = std::sin(0.1 * static_cast<double>(i * j));
      }
    }
    for (std::size_t k = 0; k < init_.size(); ++k) grid_[k] = init_[k];
  }

  SimTask body(System& sys, ThreadContext& ctx) override {
    const Range rows = blockPartition(n_, sys.config().numNodes, ctx.id());
    for (std::size_t it = 0; it < iters_; ++it) {
      for (int colour = 0; colour < 2; ++colour) {
        for (std::size_t r = rows.begin; r < rows.end; ++r) {
          const std::size_t i = r + 1;  // skip boundary row 0
          for (std::size_t j = 1 + ((i + static_cast<std::size_t>(colour)) % 2); j <= n_;
               j += 2) {
            co_await ctx.load(grid_.addr(idx(i - 1, j)));
            co_await ctx.load(grid_.addr(idx(i + 1, j)));
            co_await ctx.load(grid_.addr(idx(i, j - 1)));
            co_await ctx.load(grid_.addr(idx(i, j + 1)));
            grid_[idx(i, j)] = 0.25 * (grid_[idx(i - 1, j)] + grid_[idx(i + 1, j)] +
                                       grid_[idx(i, j - 1)] + grid_[idx(i, j + 1)]);
            co_await ctx.store(grid_.addr(idx(i, j)));
            co_await ctx.compute(8);
          }
        }
        co_await ctx.fence();
        co_await barrier_->arrive();
      }
    }
  }

  [[nodiscard]] WorkloadResult verify(System&) override {
    // Serial reference with the identical red-black schedule is
    // deterministic regardless of processor interleaving.
    std::vector<double> ref = init_;
    for (std::size_t it = 0; it < iters_; ++it) {
      for (int colour = 0; colour < 2; ++colour) {
        for (std::size_t i = 1; i <= n_; ++i) {
          for (std::size_t j = 1 + ((i + static_cast<std::size_t>(colour)) % 2); j <= n_;
               j += 2) {
            ref[idx(i, j)] = 0.25 * (ref[idx(i - 1, j)] + ref[idx(i + 1, j)] +
                                     ref[idx(i, j - 1)] + ref[idx(i, j + 1)]);
          }
        }
      }
    }
    double maxErr = 0.0;
    for (std::size_t k = 0; k < ref.size(); ++k) {
      maxErr = std::max(maxErr, std::abs(ref[k] - grid_[k]));
    }
    if (maxErr > 1e-12) return {false, "sor mismatch vs serial, max error " + std::to_string(maxErr)};
    return {true, "matches serial red-black schedule"};
  }

 private:
  std::size_t n_;
  std::size_t iters_;
  SharedArray<double> grid_;
  std::vector<double> init_;
  std::unique_ptr<HwBarrier> barrier_;
};

}  // namespace

std::unique_ptr<Workload> makeSor(std::size_t n, std::size_t iters) {
  return std::make_unique<SorWorkload>(n, iters);
}

}  // namespace dresar::workloads

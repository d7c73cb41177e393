// Floyd-Warshall all-pairs shortest paths (min-plus Warshall) on a dense
// integer distance matrix, rows block-partitioned with a barrier per pivot.
#include <vector>

#include "common/rng.h"
#include "workloads/common.h"
#include "workloads/workload.h"

namespace dresar::workloads {

namespace {

constexpr std::int32_t kInf = 1 << 28;

class FwaWorkload final : public Workload {
 public:
  explicit FwaWorkload(std::size_t n) : n_(n) {}

  [[nodiscard]] std::string name() const override { return "FWA"; }

  [[nodiscard]] std::size_t idx(std::size_t i, std::size_t j) const { return i * n_ + j; }

  void setup(System& sys) override {
    barrier_ = makeBarrier(sys);
    dist_ = SharedArray<std::int32_t>(sys.mem(), n_ * n_);
    init_.assign(n_ * n_, kInf);
    Rng rng(0xF17Du);
    for (std::size_t i = 0; i < n_; ++i) {
      init_[idx(i, i)] = 0;
      for (std::size_t j = 0; j < n_; ++j) {
        if (i != j && rng.chance(0.25)) {
          init_[idx(i, j)] = static_cast<std::int32_t>(1 + rng.below(100));
        }
      }
    }
    for (std::size_t k = 0; k < init_.size(); ++k) dist_[k] = init_[k];
  }

  SimTask body(System& sys, ThreadContext& ctx) override {
    const Range rows = blockPartition(n_, sys.config().numNodes, ctx.id());
    for (std::size_t k = 0; k < n_; ++k) {
      for (std::size_t i = rows.begin; i < rows.end; ++i) {
        co_await ctx.load(dist_.addr(idx(i, k)));
        const std::int32_t dik = dist_[idx(i, k)];
        if (dik >= kInf) {
          co_await ctx.compute(4);
          continue;
        }
        for (std::size_t j = 0; j < n_; ++j) {
          co_await ctx.load(dist_.addr(idx(k, j)));
          const std::int32_t dkj = dist_[idx(k, j)];
          if (dkj < kInf) {
            co_await ctx.load(dist_.addr(idx(i, j)));
            if (dik + dkj < dist_[idx(i, j)]) {
              dist_[idx(i, j)] = dik + dkj;
              co_await ctx.store(dist_.addr(idx(i, j)));
            }
          }
          co_await ctx.compute(6);
        }
      }
      co_await ctx.fence();
      co_await barrier_->arrive();
    }
  }

  [[nodiscard]] WorkloadResult verify(System&) override {
    std::vector<std::int32_t> ref = init_;
    for (std::size_t k = 0; k < n_; ++k) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (ref[idx(i, k)] >= kInf) continue;
        for (std::size_t j = 0; j < n_; ++j) {
          if (ref[idx(k, j)] < kInf && ref[idx(i, k)] + ref[idx(k, j)] < ref[idx(i, j)]) {
            ref[idx(i, j)] = ref[idx(i, k)] + ref[idx(k, j)];
          }
        }
      }
    }
    for (std::size_t e = 0; e < ref.size(); ++e) {
      if (ref[e] != dist_[e]) {
        return {false, "fwa mismatch at element " + std::to_string(e)};
      }
    }
    return {true, "distances match serial Floyd-Warshall"};
  }

 private:
  std::size_t n_;
  SharedArray<std::int32_t> dist_;
  std::vector<std::int32_t> init_;
  std::unique_ptr<HwBarrier> barrier_;
};

}  // namespace

std::unique_ptr<Workload> makeFwa(std::size_t n) { return std::make_unique<FwaWorkload>(n); }

}  // namespace dresar::workloads

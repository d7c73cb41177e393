// Transitive closure via Warshall's algorithm over a dense boolean
// adjacency matrix. Rows are block-partitioned; in iteration k every
// processor reads row k (written by its owner in earlier iterations), a
// one-producer / many-consumer broadcast: the first consumer triggers a
// cache-to-cache transfer, later ones read the now-clean copy — hence TC's
// moderate dirty fraction in Figure 1.
#include <vector>

#include "common/rng.h"
#include "workloads/common.h"
#include "workloads/workload.h"

namespace dresar::workloads {

namespace {

class TcWorkload final : public Workload {
 public:
  explicit TcWorkload(std::size_t n) : n_(n) {}

  [[nodiscard]] std::string name() const override { return "TC"; }

  [[nodiscard]] std::size_t idx(std::size_t i, std::size_t j) const { return i * n_ + j; }

  void setup(System& sys) override {
    barrier_ = makeBarrier(sys);
    reach_ = SharedArray<std::uint8_t>(sys.mem(), n_ * n_);
    init_.assign(n_ * n_, 0);
    Rng rng(0x7C15u);
    for (std::size_t i = 0; i < n_; ++i) {
      init_[idx(i, i)] = 1;
      for (std::size_t j = 0; j < n_; ++j) {
        if (i != j && rng.chance(0.08)) init_[idx(i, j)] = 1;
      }
    }
    for (std::size_t k = 0; k < init_.size(); ++k) reach_[k] = init_[k];
  }

  SimTask body(System& sys, ThreadContext& ctx) override {
    const Range rows = blockPartition(n_, sys.config().numNodes, ctx.id());
    for (std::size_t k = 0; k < n_; ++k) {
      for (std::size_t i = rows.begin; i < rows.end; ++i) {
        co_await ctx.load(reach_.addr(idx(i, k)));
        if (reach_[idx(i, k)] == 0) {
          co_await ctx.compute(4);
          continue;
        }
        for (std::size_t j = 0; j < n_; ++j) {
          co_await ctx.load(reach_.addr(idx(k, j)));
          if (reach_[idx(k, j)] != 0) {
            co_await ctx.load(reach_.addr(idx(i, j)));
            if (reach_[idx(i, j)] == 0) {
              reach_[idx(i, j)] = 1;
              co_await ctx.store(reach_.addr(idx(i, j)));
            }
          }
          co_await ctx.compute(4);
        }
      }
      co_await ctx.fence();
      co_await barrier_->arrive();
    }
  }

  [[nodiscard]] WorkloadResult verify(System&) override {
    std::vector<std::uint8_t> ref = init_;
    for (std::size_t k = 0; k < n_; ++k) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (ref[idx(i, k)] == 0) continue;
        for (std::size_t j = 0; j < n_; ++j) {
          if (ref[idx(k, j)] != 0) ref[idx(i, j)] = 1;
        }
      }
    }
    for (std::size_t e = 0; e < ref.size(); ++e) {
      if (ref[e] != reach_[e]) {
        return {false, "tc mismatch at element " + std::to_string(e)};
      }
    }
    return {true, "closure matches serial Warshall"};
  }

 private:
  std::size_t n_;
  SharedArray<std::uint8_t> reach_;
  std::vector<std::uint8_t> init_;
  std::unique_ptr<HwBarrier> barrier_;
};

}  // namespace

std::unique_ptr<Workload> makeTc(std::size_t n) { return std::make_unique<TcWorkload>(n); }

}  // namespace dresar::workloads

// Writing your own workload against the public API: a producer/consumer
// pipeline in which each processor repeatedly updates a block of a shared
// ring buffer and its right-hand neighbour consumes it — the pure migratory
// pattern switch directories are built for. Also demonstrates the
// protocol-visible SpinLock and per-processor statistics.
//
//   ./custom_workload [rounds] [entries]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "cpu/sync.h"
#include "sim/metrics.h"
#include "sim/system.h"
#include "workloads/workload.h"

using namespace dresar;

namespace {

class RingPipeline final : public Workload {
 public:
  explicit RingPipeline(std::size_t rounds) : rounds_(rounds) {}

  [[nodiscard]] std::string name() const override { return "RingPipeline"; }

  void setup(System& sys) override {
    const auto n = sys.config().numNodes;
    barrier_ = std::make_unique<HwBarrier>(sys.sched(), n, sys.config().barrierLatencyCycles);
    // One cache line per processor slot, each homed on a distinct node so
    // the c2c traffic exercises every path through the BMIN.
    slots_ = SharedArray<std::uint64_t>(sys.mem(), n * slotStride_);
    counterLock_ = std::make_unique<SpinLock>(sys.mem().allocAt(0, sys.config().lineBytes));
  }

  SimTask body(System& sys, ThreadContext& ctx) override {
    const auto n = sys.config().numNodes;
    const NodeId me = ctx.id();
    const NodeId left = (me + n - 1) % n;
    for (std::size_t r = 0; r < rounds_; ++r) {
      // Produce into my slot.
      slots_[me * slotStride_] = (static_cast<std::uint64_t>(me) << 32) | r;
      co_await ctx.store(slots_.addr(me * slotStride_));
      co_await ctx.fence();
      co_await barrier_->arrive();
      // Consume my left neighbour's freshly written slot: a guaranteed
      // dirty read that a switch directory can re-route.
      co_await ctx.load(slots_.addr(left * slotStride_));
      const std::uint64_t v = slots_[left * slotStride_];
      if ((v >> 32) != left || (v & 0xffffffffu) != r) ++errors_;
      // Tally progress under a protocol-visible lock.
      co_await counterLock_->acquire(ctx);
      ++consumed_;
      co_await counterLock_->release(ctx);
      co_await barrier_->arrive();
    }
  }

  [[nodiscard]] WorkloadResult verify(System& sys) override {
    const std::uint64_t expect = sys.config().numNodes * rounds_;
    if (errors_ != 0) return {false, "stale values observed: " + std::to_string(errors_)};
    if (consumed_ != expect) {
      return {false, "lock-protected counter " + std::to_string(consumed_) + " != " +
                         std::to_string(expect)};
    }
    return {true, "all " + std::to_string(expect) + " handoffs consumed fresh"};
  }

 private:
  static constexpr std::size_t slotStride_ = 8;  // one 64B-aligned slot per line pair
  std::size_t rounds_;
  SharedArray<std::uint64_t> slots_;
  std::unique_ptr<HwBarrier> barrier_;
  std::unique_ptr<SpinLock> counterLock_;
  std::uint64_t consumed_ = 0;
  std::uint64_t errors_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rounds = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 64;
  const auto entries = static_cast<std::uint32_t>(argc > 2 ? std::atoi(argv[2]) : 1024);

  for (const std::uint32_t e : {0u, entries}) {
    SystemConfig cfg = SystemConfig::paperTable2();
    cfg.switchDir.entries = e;
    System sys(cfg);
    RingPipeline w(rounds);
    const RunMetrics m = runWorkload(sys, w);
    std::printf("%-22s exec=%8llu  c2c home=%5llu switch=%5llu  avg read lat=%.1f\n",
                e == 0 ? "Base:" : "Switch directories:",
                static_cast<unsigned long long>(m.execTime),
                static_cast<unsigned long long>(m.svcCtoCHome),
                static_cast<unsigned long long>(m.svcCtoCSwitch + m.svcSwitchWB),
                m.avgReadLatency);
  }
  return 0;
}

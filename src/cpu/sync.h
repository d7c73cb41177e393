// Synchronization primitives for workload kernels.
//
// HwBarrier is a constant-cost simulator-level barrier (default for the
// scientific kernels, see DESIGN.md substitution #4). SpinLock and
// SenseBarrier are built on protocol-visible memory operations and generate
// real coherence traffic; tests use them to stress migratory c2c sharing.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/event_queue.h"
#include "common/types.h"
#include "cpu/context.h"
#include "cpu/task.h"

namespace dresar {

/// Hardware barrier: all participants resume `latency` cycles after the last
/// arrival. No memory traffic.
class HwBarrier {
 public:
  HwBarrier(EventQueue& eq, std::uint32_t participants, Cycle latency)
      : eq_(eq), participants_(participants), latency_(latency) {}

  auto arrive() {
    struct Awaiter {
      HwBarrier& b;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        b.waiting_.push_back(h);
        if (b.waiting_.size() == b.participants_) {
          auto batch = std::move(b.waiting_);
          b.waiting_.clear();
          ++b.episodes_;
          for (auto w : batch) {
            b.eq_.scheduleIn(b.latency_, [w] { w.resume(); });
          }
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  [[nodiscard]] std::uint64_t episodes() const { return episodes_; }

 private:
  EventQueue& eq_;
  std::uint32_t participants_;
  Cycle latency_;
  std::vector<std::coroutine_handle<>> waiting_;
  std::uint64_t episodes_ = 0;
};

/// Test-and-test-and-set spin lock over a simulated cache line. The value
/// lives in this object; mutual exclusion is enforced by M-state ownership —
/// the code after an rmw completes runs atomically at simulated time.
class SpinLock {
 public:
  SpinLock(Addr lockAddr, Cycle backoff = 32) : addr_(lockAddr), backoff_(backoff) {}

  SimTask acquire(ThreadContext& ctx) {
    for (;;) {
      co_await ctx.rmw(addr_);  // obtain M state (atomic test&set window)
      if (!held_) {
        held_ = true;
        co_return;
      }
      ++contended_;
      co_await ctx.delay(backoff_);
    }
  }

  SimTask release(ThreadContext& ctx) {
    co_await ctx.rmw(addr_);
    held_ = false;
  }

  [[nodiscard]] bool held() const { return held_; }
  [[nodiscard]] std::uint64_t contentionEvents() const { return contended_; }
  [[nodiscard]] Addr addr() const { return addr_; }

 private:
  Addr addr_;
  Cycle backoff_;
  bool held_ = false;
  std::uint64_t contended_ = 0;
};

/// Sense-reversing barrier over protocol-visible memory: an rmw-updated
/// arrival counter and a flag line that waiters poll with backoff. Generates
/// the c2c traffic a software barrier would.
class SenseBarrier {
 public:
  SenseBarrier(Addr counterAddr, Addr flagAddr, std::uint32_t participants, Cycle pollDelay = 64)
      : counterAddr_(counterAddr), flagAddr_(flagAddr), participants_(participants),
        pollDelay_(pollDelay) {}

  SimTask arrive(ThreadContext& ctx) {
    const std::uint64_t mySense = sense_ ^ 1u;
    co_await ctx.rmw(counterAddr_);
    ++count_;
    if (count_ == participants_) {
      count_ = 0;
      co_await ctx.rmw(flagAddr_);
      sense_ = mySense;  // release all waiters
      co_return;
    }
    while (sense_ != mySense) {
      co_await ctx.delay(pollDelay_);
      co_await ctx.load(flagAddr_);
    }
  }

 private:
  Addr counterAddr_;
  Addr flagAddr_;
  std::uint32_t participants_;
  Cycle pollDelay_;
  std::uint32_t count_ = 0;
  std::uint64_t sense_ = 0;
};

}  // namespace dresar

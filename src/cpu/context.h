// Per-processor execution context: the bridge between workload coroutines
// and the cache controller. Models a 4-issue in-order core under release
// consistency: loads block (co_await returns when data arrives), stores
// retire into the write buffer without stalling, fences drain the buffer.
#pragma once

#include <coroutine>
#include <cstdint>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/types.h"
#include "coherence/cache_controller.h"

namespace dresar {

class ThreadContext {
 public:
  ThreadContext(NodeId pid, const SystemConfig& cfg, EventQueue& sched, CacheController& cache)
      : pid_(pid), cfg_(cfg), sched_(sched), cache_(cache) {}

  ThreadContext(const ThreadContext&) = delete;
  ThreadContext& operator=(const ThreadContext&) = delete;

  [[nodiscard]] NodeId id() const { return pid_; }
  [[nodiscard]] Cycle now() const { return sched_.now(); }
  [[nodiscard]] CacheController& cache() { return cache_; }

  // ---- Awaitable operations -------------------------------------------

  /// Blocking load; await_resume yields the ReadResult.
  auto load(Addr a) {
    struct Awaiter : Resume<LoadWaiter> {
      ThreadContext& ctx;
      Addr a;
      void await_suspend(std::coroutine_handle<> handle) {
        h = handle;
        ctx.cache_.cpuRead(a, *this);
      }
      ReadResult await_resume() const noexcept {
        ctx.noteLoad(latency);
        return readResult();
      }
    };
    return Awaiter{{}, *this, a};
  }

  /// Store under release consistency; resumes when retired into the write
  /// buffer (usually after one L1 cycle).
  auto store(Addr a) {
    struct Awaiter : Resume<Waiter> {
      ThreadContext& ctx;
      Addr a;
      void await_suspend(std::coroutine_handle<> handle) {
        h = handle;
        ctx.stores_++;
        ctx.cache_.cpuWrite(a, *this);
      }
    };
    return Awaiter{{}, *this, a};
  }

  /// Atomic read-modify-write; resumes holding the line in M state. The
  /// code immediately after the co_await runs atomically with respect to
  /// every other simulated processor (single-threaded event loop).
  auto rmw(Addr a) {
    struct Awaiter : Resume<Waiter> {
      ThreadContext& ctx;
      Addr a;
      void await_suspend(std::coroutine_handle<> handle) {
        h = handle;
        ctx.rmws_++;
        ctx.cache_.cpuRmw(a, *this);
      }
    };
    return Awaiter{{}, *this, a};
  }

  /// Raw cycle delay.
  auto delay(Cycle cycles) {
    struct Awaiter {
      ThreadContext& ctx;
      Cycle cycles;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        ctx.sched_.scheduleIn(cycles, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, cycles};
  }

  /// Non-memory work: `instructions` retire at the configured issue width.
  auto compute(std::uint64_t instructions) {
    const Cycle cycles = (instructions + cfg_.issueWidth - 1) / cfg_.issueWidth;
    return delay(cycles == 0 ? 1 : cycles);
  }

  /// Release fence: resumes when the write buffer has drained.
  auto fence() {
    struct Awaiter : Resume<Waiter> {
      ThreadContext& ctx;
      void await_suspend(std::coroutine_handle<> handle) {
        h = handle;
        ctx.cache_.drainWrites(*this);
      }
    };
    return Awaiter{{}, *this};
  }

  // ---- Accounting --------------------------------------------------------
  [[nodiscard]] std::uint64_t loads() const { return loads_; }
  [[nodiscard]] std::uint64_t stores() const { return stores_; }
  [[nodiscard]] std::uint64_t rmws() const { return rmws_; }
  [[nodiscard]] std::uint64_t readStallCycles() const { return readStall_; }

  void markDone(Cycle c) {
    done_ = true;
    finish_ = c;
  }
  [[nodiscard]] bool isDone() const { return done_; }
  [[nodiscard]] Cycle finishTime() const { return finish_; }

 private:
  /// Base of the memory-operation awaiters: the awaiter is the controller's
  /// completion record `W` (it lives in the coroutine frame while the
  /// coroutine is suspended), and its completion resumes the coroutine.
  template <typename W>
  struct Resume : W {
    Resume() {
      this->complete = [](Waiter& w) { static_cast<Resume&>(w).h.resume(); };
    }
    std::coroutine_handle<> h;
    bool await_ready() const noexcept { return false; }
    void await_resume() const noexcept {}
  };

  void noteLoad(Cycle latency) {
    ++loads_;
    readStall_ += latency;
  }

  NodeId pid_;
  const SystemConfig& cfg_;
  EventQueue& sched_;
  CacheController& cache_;
  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t rmws_ = 0;
  std::uint64_t readStall_ = 0;
  bool done_ = false;
  Cycle finish_ = 0;
};

}  // namespace dresar

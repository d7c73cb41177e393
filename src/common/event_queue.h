// Discrete-event simulation kernel with cycle-granularity timestamps.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/small_fn.h"
#include "common/types.h"

namespace dresar {

/// A deterministic discrete-event queue. Events scheduled for the same cycle
/// fire in scheduling order, which keeps simulations reproducible across runs
/// and platforms.
///
/// Internally a calendar queue: a power-of-two ring of per-cycle FIFO buckets
/// covering the near window [now, now + kBuckets), with a sorted overflow map
/// for events beyond the window. Scheduling and dispatch are O(1) on the hot
/// path (coherence traffic schedules a handful of cycles ahead), versus the
/// O(log n) push/pop of a binary heap. FIFO append per bucket preserves the
/// (cycle, scheduling-order) total order exactly: far events for a cycle were
/// necessarily scheduled before that cycle entered the window, so migrating
/// them to the front of the bucket keeps them ahead of later near appends.
class EventQueue {
 public:
  /// Event record: a 64-byte SmallFn (ops pointer, then a 56-byte inline
  /// payload) with no heap path. Closures whose payload would not fit — a
  /// 96-byte Message above all — carry an ArenaBox from box() instead.
  using Handler = SmallFn<56, 8>;
  static_assert(sizeof(Handler) == 64, "EventQueue::Handler must be one 64-byte record");

  /// Move `v` into the queue's arena and return its move-only handle, for an
  /// event closure to capture in place of the value. The arena is declared
  /// before the calendar ring, so it outlives every pending closure — also
  /// at teardown and after a handler throws — but a box must not outlive
  /// the queue itself.
  template <typename T>
  [[nodiscard]] ArenaBox<std::decay_t<T>> box(T&& v) {
    return ArenaBox<std::decay_t<T>>(arena_, std::forward<T>(v));
  }

  /// The same arena, for other state that event closures hold (the flit
  /// network's shared message states). The lifetime rule is box()'s.
  [[nodiscard]] Arena& arena() { return arena_; }

  /// Current simulated cycle. Valid during and after event execution.
  [[nodiscard]] Cycle now() const { return now_; }

  /// Schedule `fn` to run at absolute cycle `when` (>= now()). Templated so
  /// the closure is constructed directly in its bucket slot.
  template <typename F>
  void scheduleAt(Cycle when, F&& fn) {
    static_assert(Handler::fits<std::decay_t<F>>,
                  "event closure exceeds the 56-byte record payload: capture large "
                  "values through EventQueue::box()");
    if (when < now_) throw std::logic_error("EventQueue: scheduling into the past");
    ++pending_;
    if (when < windowEnd_) {
      bucketOf(when).emplace_back(std::forward<F>(fn));
      markOccupied(when);
    } else {
      far_[when].emplace_back(std::forward<F>(fn));
    }
  }

  /// Schedule `fn` to run `delay` cycles from now.
  template <typename F>
  void scheduleIn(Cycle delay, F&& fn) {
    scheduleAt(now_ + delay, std::forward<F>(fn));
  }

  [[nodiscard]] bool empty() const { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Run until the queue drains or `limit` cycles have elapsed.
  /// Returns true if the queue drained (normal completion). Each cycle fires
  /// as a batch (see fireCycle). If a handler throws, the exception leaves
  /// run() and the cycle's unfired events stay pending, in order, for the
  /// next call.
  bool run(Cycle limit = kNoCycle);

 private:
  static constexpr std::size_t kBuckets = 1024;  // power of two; window width
  static constexpr std::size_t kMask = kBuckets - 1;
  static constexpr std::size_t kWords = kBuckets / 64;

  /// One cycle's FIFO of handlers.
  using Bucket = std::vector<Handler>;

  [[nodiscard]] Bucket& bucketOf(Cycle when) { return ring_[when & kMask]; }
  void markOccupied(Cycle when) { occupied_[(when & kMask) >> 6] |= 1ull << (when & 63); }
  void markDrained(Cycle when) { occupied_[(when & kMask) >> 6] &= ~(1ull << (when & 63)); }

  /// Earliest pending cycle, or kNoCycle if the queue is empty.
  [[nodiscard]] Cycle nextEventCycle() const;
  /// Advance now_ to `when` and pull overflow cycles entering the window.
  void advanceTo(Cycle when);
  /// Fire every handler of the current cycle's bucket, including same-cycle
  /// appends made while it runs.
  void fireCycle(Bucket& b);
  /// Charge `n` fired handlers to the counters.
  void settleFired(std::size_t n) {
    pending_ -= n;
    executed_ += n;
  }

  /// Backing store for box(). Declared before the ring and the overflow map
  /// so it is destroyed after them: every pending closure releases its boxes
  /// into a live arena.
  Arena arena_;
  std::array<Bucket, kBuckets> ring_;
  std::array<std::uint64_t, kWords> occupied_{};  ///< bit per non-drained bucket
  std::map<Cycle, std::vector<Handler>> far_;     ///< beyond the near window
  /// Empty vector whose capacity fireCycle() swaps into each drained bucket,
  /// so per-cycle dispatch allocates nothing in steady state.
  std::vector<Handler> spare_;
  /// Fired handlers. Kept apart from pending_ so settleFired() updates the
  /// two with scalar read-modify-writes: the compiler fuses adjacent ones
  /// into a 16-byte load, which cannot be forwarded from the 8-byte store
  /// scheduleAt() just made to pending_ (DESIGN §11).
  std::uint64_t executed_ = 0;
  Cycle now_ = 0;
  Cycle windowEnd_ = kBuckets;  ///< near window is [now_, windowEnd_)
  /// Pending handlers (ring + far). fireCycle() charges fired handlers once
  /// per batch, so the count is exact whenever run() returns or throws, not
  /// inside a batch.
  std::size_t pending_ = 0;
};

}  // namespace dresar

// Discrete-event simulation kernel with cycle-granularity timestamps.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <vector>

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
  /// Event closure. SmallFn's inline buffer is sized for the largest hot
  /// closure (Network's switch-hop lambda: a 96-byte Message plus route
  /// state), so scheduling an event performs no heap allocation — the
  /// single biggest remaining malloc source in the calendar-queue loop.
  /// Oversized closures still work; they transparently fall back to the
  /// heap like std::function.
  using Handler = SmallFn<160>;

  /// Current simulated cycle. Valid during and after event execution.
  [[nodiscard]] Cycle now() const { return now_; }

  /// Schedule `fn` to run at absolute cycle `when` (>= now()). Templated so
  /// the closure is constructed directly in its bucket slot — one payload
  /// move, not a Handler round trip (hot closures carry ~150-byte captures,
  /// so an extra relocation per event is measurable).
  template <typename F>
  void scheduleAt(Cycle when, F&& fn) {
    if (when < now_) throw std::logic_error("EventQueue: scheduling into the past");
    ++pending_;
    if (when < windowEnd_) {
      Bucket& b = bucketOf(when);
      b.items.emplace_back(std::forward<F>(fn));
      markOccupied(when);
      ++nearCount_;
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
  /// Returns true if the queue drained (normal completion).
  bool run(Cycle limit = kNoCycle);

  /// Run while `keepGoing` returns true (checked between events) and events
  /// remain. Returns true if stopped because `keepGoing` became false.
  bool runWhile(const std::function<bool()>& keepGoing, Cycle limit = kNoCycle);

  /// Drop all pending events (used by tests between scenarios).
  void clear();

 private:
  static constexpr std::size_t kBuckets = 1024;  // power of two; window width
  static constexpr std::size_t kMask = kBuckets - 1;
  static constexpr std::size_t kWords = kBuckets / 64;

  /// One cycle's FIFO of handlers. `head` marks how many have already fired,
  /// so a run can stop mid-cycle (runWhile) without reshuffling the vector.
  struct Bucket {
    std::vector<Handler> items;
    std::size_t head = 0;
    [[nodiscard]] bool drained() const { return head >= items.size(); }
  };

  [[nodiscard]] Bucket& bucketOf(Cycle when) { return ring_[when & kMask]; }
  void markOccupied(Cycle when) { occupied_[(when & kMask) >> 6] |= 1ull << (when & 63); }
  void markDrained(Cycle when) { occupied_[(when & kMask) >> 6] &= ~(1ull << (when & 63)); }

  /// Earliest pending cycle, or kNoCycle if the queue is empty.
  [[nodiscard]] Cycle nextEventCycle() const;
  /// Advance now_ to `when` and pull overflow cycles entering the window.
  void advanceTo(Cycle when);
  /// Fire the next handler of the current cycle's bucket.
  void dispatchOne(Bucket& b);

  std::array<Bucket, kBuckets> ring_;
  std::array<std::uint64_t, kWords> occupied_{};  ///< bit per non-drained bucket
  std::map<Cycle, std::vector<Handler>> far_;     ///< beyond the near window
  Cycle now_ = 0;
  Cycle windowEnd_ = kBuckets;  ///< near window is [now_, windowEnd_)
  std::size_t nearCount_ = 0;   ///< pending handlers in the ring
  std::size_t pending_ = 0;     ///< pending handlers total (ring + far)
  std::uint64_t executed_ = 0;
};

}  // namespace dresar

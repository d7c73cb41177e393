#include "common/event_queue.h"

#include <bit>
#include <stdexcept>
#include <utility>

namespace dresar {

Cycle EventQueue::nextEventCycle() const {
  if (nearCount_ > 0) {
    // Circular bitmap scan from the current cycle's ring position; each
    // occupied bucket maps back to the unique pending cycle in the window.
    const auto start = static_cast<std::size_t>(now_ & kMask);
    for (std::size_t i = 0; i <= kWords; ++i) {
      const std::size_t w = ((start >> 6) + i) & (kWords - 1);
      std::uint64_t word = occupied_[w];
      if (i == 0) word &= ~0ull << (start & 63);
      if (i == kWords) word &= (start & 63) != 0 ? (1ull << (start & 63)) - 1 : 0;
      if (word == 0) continue;
      const std::size_t pos = (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
      return now_ + static_cast<Cycle>((pos - start) & kMask);
    }
  }
  if (!far_.empty()) return far_.begin()->first;
  return kNoCycle;
}

void EventQueue::advanceTo(Cycle when) {
  now_ = when;
  const Cycle newEnd = when + kBuckets;
  if (newEnd <= windowEnd_) return;
  // Overflow cycles entering the window move to their (empty) buckets before
  // any near append for those cycles can happen, preserving FIFO order.
  while (!far_.empty() && far_.begin()->first < newEnd) {
    auto it = far_.begin();
    Bucket& b = bucketOf(it->first);
    b.items = std::move(it->second);
    b.head = 0;
    markOccupied(it->first);
    nearCount_ += b.items.size();
    far_.erase(it);
  }
  windowEnd_ = newEnd;
}

void EventQueue::dispatchOne(Bucket& b) {
  Handler fn = std::move(b.items[b.head]);
  ++b.head;
  --nearCount_;
  --pending_;
  ++executed_;
  fn();
}

bool EventQueue::run(Cycle limit) {
  for (;;) {
    const Cycle t = nextEventCycle();
    if (t == kNoCycle) return true;
    if (t > limit) return false;
    advanceTo(t);
    Bucket& b = bucketOf(t);
    // Handlers may append same-cycle events; the index-based head chases them.
    while (!b.drained()) dispatchOne(b);
    b.items.clear();
    b.head = 0;
    markDrained(t);
  }
}

bool EventQueue::runWhile(const std::function<bool()>& keepGoing, Cycle limit) {
  for (;;) {
    if (pending_ == 0) return !keepGoing();
    if (!keepGoing()) return true;
    const Cycle t = nextEventCycle();
    if (t > limit) return false;
    advanceTo(t);
    Bucket& b = bucketOf(t);
    dispatchOne(b);
    if (b.drained()) {
      b.items.clear();
      b.head = 0;
      markDrained(t);
    }
  }
}

void EventQueue::clear() {
  for (auto& b : ring_) {
    b.items.clear();
    b.head = 0;
  }
  occupied_.fill(0);
  far_.clear();
  nearCount_ = 0;
  pending_ = 0;
}

}  // namespace dresar

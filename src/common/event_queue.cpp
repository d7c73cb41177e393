#include "common/event_queue.h"

#include <bit>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace dresar {

Cycle EventQueue::nextEventCycle() const {
  // Circular bitmap scan from the current cycle's ring position; each
  // occupied bucket maps back to the unique pending cycle in the window.
  // Between dispatches a bit is set exactly when its bucket holds unfired
  // handlers, so an all-zero scan means the ring is empty.
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
    far_.erase(it);
  }
  windowEnd_ = newEnd;
}

void EventQueue::dispatchOne(Bucket& b) {
  Handler fn = std::move(b.items[b.head]);
  ++b.head;
  --pending_;
  ++executed_;
  fn();
}

void EventQueue::fireCycle(Bucket& b) {
  // Swap the bucket's handlers out and invoke each where it sits, instead of
  // relocating it first. Same-cycle appends made meanwhile land in the fresh
  // bucket vector and fire as the next batch, which is exactly the FIFO
  // order of one growing list. A runWhile() stopped mid-cycle left b.head
  // past the handlers it already fired.
  //
  // The counters are settled once per batch, never per event: handlers
  // increment pending_ in scheduleAt(), and a per-event read-modify-write of
  // the same counter waits for that store to commit (DESIGN §11).
  std::vector<Handler> batch = std::move(spare_);
  std::size_t first = 0;
  std::size_t i = 0;
  try {
    while (!b.drained()) {
      batch.swap(b.items);
      first = i = std::exchange(b.head, 0);
      for (; i < batch.size(); ++i) {
        batch[i]();
        batch[i].reset();
      }
      settleFired(i - first);
      batch.clear();
    }
  } catch (...) {
    // batch[i] threw and is spent, so it counts as fired; the rest of the
    // batch goes back ahead of what the batch appended, so the next run()
    // resumes in order.
    settleFired(i - first + 1);
    const auto rest = batch.begin() + static_cast<std::ptrdiff_t>(i) + 1;
    b.items.insert(b.items.begin(), std::make_move_iterator(rest),
                   std::make_move_iterator(batch.end()));
    if (b.items.empty()) markDrained(now_);
    batch.clear();
    spare_ = std::move(batch);
    throw;
  }
  spare_ = std::move(batch);
}

bool EventQueue::run(Cycle limit) {
  for (;;) {
    const Cycle t = nextEventCycle();
    if (t == kNoCycle) return true;
    if (t > limit) return false;
    advanceTo(t);
    fireCycle(bucketOf(t));
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
  pending_ = 0;
}

}  // namespace dresar

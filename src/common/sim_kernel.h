// The simulation kernel: one calendar queue and the one stat registry every
// component of a System schedules on and counts into. Components take the
// EventQueue& (and StatRegistry&) directly; SimKernel only owns the pair and
// drives the run. DESIGN §13 records why the kernel is not parallel.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/event_queue.h"
#include "common/stats.h"
#include "common/types.h"

namespace dresar {

class SimKernel {
 public:
  SimKernel() = default;

  SimKernel(const SimKernel&) = delete;
  SimKernel& operator=(const SimKernel&) = delete;

  [[nodiscard]] EventQueue& queue() { return q_; }
  [[nodiscard]] StatRegistry& stats() { return stats_; }
  [[nodiscard]] const StatRegistry& stats() const { return stats_; }

  /// Run until the queue drains or `limit` cycles elapse. Returns true on a
  /// drain (normal completion).
  bool run(Cycle limit = kNoCycle) { return q_.run(limit); }

  [[nodiscard]] Cycle now() const { return q_.now(); }
  /// Events executed so far (a run record's "events", sim/run_recorder.h).
  [[nodiscard]] std::uint64_t executedEvents() const { return q_.executed(); }
  [[nodiscard]] std::size_t pendingEvents() const { return q_.pending(); }

 private:
  EventQueue q_;
  StatRegistry stats_;
};

}  // namespace dresar

// Work-stealing thread pool for sweep jobs. Simulation jobs vary in cost by
// orders of magnitude (GAUSS @ paper scale vs a 200K-ref trace), so static
// partitioning would leave workers idle; each worker owns a deque seeded
// round-robin, pops from its own front, and steals from the back of a
// victim's deque when it runs dry — classic owner-front/thief-back so steals
// grab the work the owner would reach last.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace dresar::harness {

/// Thrown by WorkStealingPool::forEach when one or more jobs threw. Every
/// failure is preserved with its job index so the caller can name the job
/// (config tag, seed) instead of reporting an anonymous first-to-fail error,
/// and so results of the jobs that *did* complete are never discarded — the
/// pool always finishes the remaining queue before throwing.
class PoolError : public std::runtime_error {
 public:
  struct Failure {
    std::size_t job;    ///< index passed to fn
    std::string what;   ///< the job exception's message
  };

  explicit PoolError(std::vector<Failure> failures)
      : std::runtime_error(describe(failures)), failures_(std::move(failures)) {}

  [[nodiscard]] const std::vector<Failure>& failures() const { return failures_; }

 private:
  static std::string describe(const std::vector<Failure>& fs);

  std::vector<Failure> failures_;
};

class WorkStealingPool {
 public:
  /// `threads` == 0 or 1 runs everything inline on the calling thread.
  explicit WorkStealingPool(unsigned threads) : threads_(threads == 0 ? 1 : threads) {}

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Execute fn(jobIndex) for every jobIndex in [0, n). Blocks until all
  /// jobs finished; a throwing job never cancels its siblings — every
  /// remaining job still runs, and the failures are reported together as one
  /// PoolError (ordered by job index) after the join.
  void forEach(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::size_t> jobs;
  };

  unsigned threads_;
};

}  // namespace dresar::harness

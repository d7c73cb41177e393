#include "harness/pool.h"

#include <algorithm>
#include <exception>
#include <thread>

namespace dresar::harness {

std::string PoolError::describe(const std::vector<Failure>& fs) {
  std::string s = std::to_string(fs.size()) + " job(s) failed:";
  for (const Failure& f : fs) {
    s += " [job " + std::to_string(f.job) + "] " + f.what + ";";
  }
  if (!fs.empty()) s.pop_back();  // drop trailing ';'
  return s;
}

namespace {

/// what() of an in-flight exception, tolerating non-std exceptions.
std::string describeCurrentException() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

void WorkStealingPool::forEach(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;

  std::mutex errMu;
  std::vector<PoolError::Failure> failures;
  const auto recordFailure = [&](std::size_t job) {
    const std::lock_guard<std::mutex> lock(errMu);
    failures.push_back({job, describeCurrentException()});
  };

  if (threads_ == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        recordFailure(i);
      }
    }
  } else {
    const unsigned workers = threads_;
    std::vector<Queue> queues(workers);
    for (std::size_t i = 0; i < n; ++i) {
      queues[i % workers].jobs.push_back(i);  // round-robin seeding, pre-start
    }

    const auto popOwn = [&queues](unsigned w, std::size_t& out) {
      Queue& q = queues[w];
      const std::lock_guard<std::mutex> lock(q.mu);
      if (q.jobs.empty()) return false;
      out = q.jobs.front();
      q.jobs.pop_front();
      return true;
    };
    const auto steal = [&queues, workers](unsigned thief, std::size_t& out) {
      for (unsigned d = 1; d < workers; ++d) {
        Queue& q = queues[(thief + d) % workers];
        const std::lock_guard<std::mutex> lock(q.mu);
        if (!q.jobs.empty()) {
          out = q.jobs.back();
          q.jobs.pop_back();
          return true;
        }
      }
      return false;
    };

    const auto workerBody = [&](unsigned w) {
      std::size_t job = 0;
      while (popOwn(w, job) || steal(w, job)) {
        try {
          fn(job);
        } catch (...) {
          recordFailure(job);
        }
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(workerBody, w);
    for (std::thread& t : pool) t.join();
  }

  if (!failures.empty()) {
    // Completion order depends on scheduling; report by job index instead.
    std::sort(failures.begin(), failures.end(),
              [](const PoolError::Failure& a, const PoolError::Failure& b) {
                return a.job < b.job;
              });
    throw PoolError(std::move(failures));
  }
}

}  // namespace dresar::harness

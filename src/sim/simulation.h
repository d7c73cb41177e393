// Unified simulation facade: config in, metrics out. Wraps the System +
// workload-runner + checker plumbing that benches, harness runners and tests
// previously wired by hand, and is the one place fault-injection campaigns
// are closed out (every injected fault must have been recovered, and the
// protocol invariants must hold, before metrics are handed back).
//
//   SystemConfig cfg;             // validated up front, ALL violations listed
//   Simulation sim(cfg);
//   RunMetrics m = sim.run({.workload = "fft", .scale = WorkloadScale::tiny()});
//
// The underlying System stays reachable via system() for tests that poke
// controllers directly or spawn custom tasks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/config.h"
#include "sim/checker.h"
#include "sim/metrics.h"
#include "sim/system.h"
#include "workloads/workload.h"

namespace dresar {

/// Everything a single simulation run needs. New run parameters are added
/// here (with behavior-preserving defaults) instead of growing positional
/// arguments on Simulation::run.
struct RunRequest {
  std::string workload;           ///< kernel key ("fft", "sor", "tc", ...)
  WorkloadScale scale{};          ///< problem size
  bool requireVerify = true;      ///< numeric verify after the run
};

class Simulation {
 public:
  /// Builds the System. Throws std::invalid_argument listing EVERY config
  /// violation (not just the first) when `cfg` is invalid.
  explicit Simulation(const SystemConfig& cfg);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Run one scientific kernel to completion: setup -> one coroutine per
  /// processor -> fence -> numeric verify (unless `req.requireVerify` is
  /// false). On a fault-injection run this additionally requires the
  /// campaign to have closed (every injected fault recovered — see
  /// FaultInjector::requireBalanced) and the protocol checker to come back
  /// clean; either failing throws. Returns the collected metrics, with the
  /// fault.* counters folded in when injection was enabled.
  RunMetrics run(const RunRequest& req);

  /// Protocol invariant check on the (quiescent) system.
  [[nodiscard]] CheckReport check() const;

  /// Chrome trace_event fragment for the last traced run (requires
  /// cfg.txnTrace.enabled; throws otherwise). `pid` becomes the trace
  /// process id, `label` its display name.
  [[nodiscard]] std::string chromeTraceFragment(std::uint32_t pid,
                                                const std::string& label) const;

  [[nodiscard]] System& system() { return *sys_; }
  [[nodiscard]] const System& system() const { return *sys_; }

 private:
  std::unique_ptr<System> sys_;
};

}  // namespace dresar

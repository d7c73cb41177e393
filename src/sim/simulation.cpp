#include "sim/simulation.h"

#include <sstream>
#include <stdexcept>

#include "fault/injector.h"

namespace dresar {

Simulation::Simulation(const SystemConfig& cfg) : sys_(std::make_unique<System>(cfg)) {}

RunMetrics Simulation::run(const RunRequest& req) {
  auto w = makeWorkload(req.workload, req.scale);
  RunMetrics m = runWorkload(*sys_, *w, req.requireVerify);
  if (const FaultInjector* fault = sys_->faultInjector(); fault != nullptr) {
    // Close out the campaign: every dropped message must have been recovered
    // (throws otherwise), and the faults must not have corrupted coherence.
    fault->requireBalanced();
    const CheckReport report = ProtocolChecker::check(*sys_);
    if (!report.ok()) {
      throw std::runtime_error(req.workload +
                               ": protocol check failed after fault campaign: " +
                               report.summary());
    }
  }
  return m;
}

CheckReport Simulation::check() const { return ProtocolChecker::check(*sys_); }

std::string Simulation::chromeTraceFragment(std::uint32_t pid,
                                            const std::string& label) const {
  if (!sys_->config().txnTrace.enabled) {
    throw std::logic_error("Simulation::chromeTraceFragment: txnTrace not enabled");
  }
  std::ostringstream os;
  bool first = true;
  TxnTracer::writeChromeProcessName(os, pid, label, first);
  sys_->txnTracer().appendChromeEvents(os, pid, first);
  return os.str();
}

}  // namespace dresar

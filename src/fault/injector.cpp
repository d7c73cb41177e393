#include "fault/injector.h"

#include <sstream>
#include <stdexcept>

namespace dresar {

namespace {
// Stream separation: decorrelate the per-class Rng states so e.g. raising the
// drop rate never changes which deliveries get delayed.
constexpr std::uint64_t kStreamStride = 0x9E3779B97F4A7C15ull;
}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, StatRegistry& stats)
    : plan_(plan),
      dropRng_(plan.seed + 1 * kStreamStride),
      delayRng_(plan.seed + 2 * kStreamStride),
      sdLossRng_(plan.seed + 3 * kStreamStride),
      injectedDrops_(stats.counterHandle("fault.injected_drops")),
      injectedDelays_(stats.counterHandle("fault.injected_delays")),
      injectedDelayCycles_(stats.counterHandle("fault.injected_delay_cycles")),
      injectedSdLosses_(stats.counterHandle("fault.injected_sd_losses")),
      injectedStallCycles_(stats.counterHandle("fault.injected_stall_cycles")),
      timeoutReissues_(stats.counterHandle("fault.timeout_reissues")),
      recovered_(stats.counterHandle("fault.recovered")) {}

bool FaultInjector::shouldDrop(const Message& m) {
  if (plan_.msgDropRate <= 0.0 || !dropRng_.chance(plan_.msgDropRate)) return false;
  ++injectedDrops_;
  ++stranded_[{m.requester, m.addr}];
  return true;
}

Cycle FaultInjector::deliveryDelay(const Message&) {
  if (plan_.msgDelayRate <= 0.0 || !delayRng_.chance(plan_.msgDelayRate)) return 0;
  const Cycle d = 1 + delayRng_.below(plan_.msgDelayCycles);
  ++injectedDelays_;
  injectedDelayCycles_ += d;
  return d;
}

bool FaultInjector::loseSdEntry() {
  if (plan_.sdEntryLossRate <= 0.0 || !sdLossRng_.chance(plan_.sdEntryLossRate)) return false;
  ++injectedSdLosses_;
  return true;
}

Cycle FaultInjector::stallAdjustedStart(Cycle start) {
  const LinkStallSpec& s = plan_.linkStall;
  const Cycle end = s.startCycle + s.lengthCycles;
  if (start < s.startCycle || start >= end) return start;
  injectedStallCycles_ += end - start;
  return end;
}

bool FaultInjector::stallTickSkipped(Cycle now) {
  const LinkStallSpec& s = plan_.linkStall;
  if (now < s.startCycle || now >= s.startCycle + s.lengthCycles) return false;
  ++injectedStallCycles_;
  return true;
}

void FaultInjector::consumeStranded(NodeId requester, Addr block) {
  const auto it = stranded_.find({requester, block});
  if (it == stranded_.end()) return;
  if (--it->second == 0) stranded_.erase(it);
  ++recovered_;
}

void FaultInjector::requireBalanced() const {
  if (recovered() == injectedEffective() && stranded_.empty()) return;
  std::ostringstream os;
  os << "fault accounting imbalance: injected_effective=" << injectedEffective()
     << " recovered=" << recovered() << " stranded=" << stranded_.size();
  for (const auto& [key, n] : stranded_) {
    os << "\n  node " << key.first << " block 0x" << std::hex << key.second << std::dec << " x"
       << n;
  }
  throw std::runtime_error(os.str());
}

}  // namespace dresar

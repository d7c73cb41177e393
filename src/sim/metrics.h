// Aggregated run metrics — exactly the quantities the paper's figures plot.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/txn_trace.h"
#include "common/types.h"
#include "interconnect/inetwork.h"

namespace dresar {

class System;

struct RunMetrics {
  std::string workload;
  Cycle execTime = 0;  ///< Figure 11 numerator

  // Read classification (Figure 1).
  std::uint64_t reads = 0;       ///< all CPU loads
  std::uint64_t stores = 0;      ///< all CPU stores (events/sec accounting)
  std::uint64_t readMisses = 0;  ///< serviced beyond L2 / write buffer
  std::uint64_t svcClean = 0;    ///< clean memory replies
  std::uint64_t svcCtoCHome = 0; ///< home-forwarded cache-to-cache
  std::uint64_t svcCtoCSwitch = 0;  ///< switch-directory re-routed c2c
  std::uint64_t svcSwitchWB = 0;    ///< served from write-back data at a switch
  std::uint64_t svcSwitchCache = 0; ///< clean data served by a switch cache (ext.)

  // Latency (Figures 9/10).
  double avgReadLatency = 0.0;
  double totalReadStall = 0.0;
  double totalReadLatCtoC = 0.0;   ///< latency mass from c2c-serviced reads
  double totalReadLatClean = 0.0;  ///< latency mass from clean-serviced reads (incl. hits)
  double totalReadLatCleanMiss = 0.0;  ///< latency mass from clean *misses* only

  // Home directory activity (Figure 8).
  std::uint64_t homeCtoC = 0;  ///< c2c transfers forwarded by home nodes

  // Switch directory activity.
  std::uint64_t sdDeposits = 0;
  std::uint64_t sdCtoCInitiated = 0;
  std::uint64_t sdWriteBackServes = 0;
  std::uint64_t sdCopyBackServes = 0;
  std::uint64_t sdRetries = 0;

  std::uint64_t netMessages = 0;
  /// Messages injected per type (Table 1), indexed by MsgType.
  std::array<std::uint64_t, kMsgTypeCount> msgsByType{};
  std::uint64_t retriesObserved = 0;
  std::uint64_t backoffCycles = 0;  ///< cycles NAKed requesters spent backing off

  // Fault injection (filled only when the run injected faults).
  bool faultEnabled = false;
  std::uint64_t faultInjectedDrops = 0;
  std::uint64_t faultInjectedDelays = 0;
  std::uint64_t faultInjectedDelayCycles = 0;
  std::uint64_t faultInjectedSdLosses = 0;
  std::uint64_t faultInjectedStallCycles = 0;
  std::uint64_t faultTimeoutReissues = 0;
  std::uint64_t faultRecovered = 0;
  /// Faults that strand a transaction and require recovery (drops).
  [[nodiscard]] std::uint64_t faultInjectedEffective() const { return faultInjectedDrops; }
  /// Requests sent on to the home because an injected entry loss hid the
  /// switch directory's entry: every loss causes exactly one.
  [[nodiscard]] std::uint64_t faultFallbackHomeLookups() const { return faultInjectedSdLosses; }

  // Congestion lab (schema v6). Telemetry is copied from the network when it
  // collects any (flit-level runs); offered/accepted load is annotated by
  // the hotspot/incast traffic workloads (Workload::annotate). Either source
  // flips congestionEnabled.
  bool congestionEnabled = false;
  double congOfferedRate = 0.0;   ///< refs/cycle the node streams offered
  double congAcceptedRate = 0.0;  ///< refs/cycle the machine completed
  std::uint64_t congRuns = 0;     ///< enabled runs folded in (merge weight)
  CongestionTelemetry congestion;

  // Latency attribution (filled only when the run traced transactions).
  std::uint64_t traceReadTxns = 0;
  std::uint64_t traceWriteTxns = 0;
  double traceReadEndToEnd = 0.0;   ///< summed issue->fill cycles, reads
  double traceWriteEndToEnd = 0.0;  ///< summed issue->fill cycles, writes
  std::array<double, kTxnStageCount> traceReadStage{};
  std::array<double, kTxnStageCount> traceWriteStage{};

  [[nodiscard]] std::uint64_t ctocServiced() const {
    return svcCtoCHome + svcCtoCSwitch + svcSwitchWB;
  }
  /// Fraction of read misses serviced dirty (Figure 1 right bar).
  [[nodiscard]] double dirtyFraction() const {
    return readMisses == 0 ? 0.0 : static_cast<double>(ctocServiced()) / readMisses;
  }

  static RunMetrics collect(const System& sys, const std::string& workload);
};

/// Normalized reduction used by the figure and ablation reports:
/// reduction = 1 - with/base, reported as a percentage.
double reductionPct(double base, double with);

}  // namespace dresar

// DRESAR — the DiRectory Embedded Switch ARchitecture (paper Section 4).
// One DresarManager observes every message traversing every switch of the
// BMIN (via the Network snoop hook) and implements the switch-directory
// protocol of Figure 4 / Table 1:
//
//   * WriteReply (home -> writer) deposits {MODIFIED, owner} at each switch
//     on its backward path.
//   * ReadRequest hitting MODIFIED is sunk; the entry goes TRANSIENT and a
//     *marked* CtoCRequest is re-routed to the owner's cache.
//   * ReadRequest hitting TRANSIENT is sunk and the requester told to Retry.
//   * WriteRequest hitting MODIFIED invalidates the entry and proceeds;
//     hitting TRANSIENT it is sunk and the writer told to Retry.
//   * Home-generated CtoCRequests invalidate MODIFIED entries, and are sunk
//     at TRANSIENT entries (the marked CopyBack completes both transactions).
//   * CopyBack / WriteBack invalidate entries; while TRANSIENT, a passing
//     WriteBack (or a CopyBack that served a different requester) supplies
//     the data for a switch-generated ReadReply to the stored requester, and
//     the message is annotated with the served pid so the home's full-map
//     directory stays exact ("marked writeback/copyback", paper 3.2).
//   * A marked Retry from an owner that could no longer supply the block
//     clears the initiating TRANSIENT entry and bounces the requester.
//
// Port contention is modeled per paper 4.2/4.3: request-side snoops share the
// 2-way multiported main directory; transient-state checks use the 4-way
// multiported pending buffer when the number of TRANSIENT entries fits.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <memory>

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"
#include "interconnect/network.h"
#include "switchdir/dir_cache.h"
#include "switchdir/port_schedule.h"
#include "switchdir/sd_policy.h"

namespace dresar {

class DresarManager : public ISwitchSnoop {
 public:
  /// Each switch unit's counters register in `stats` as "sd.<flat>.*".
  /// `tracer` records snoop outcomes and `fault` injects entry loss on
  /// would-be hits; either may be null (untraced, fault-free runs).
  DresarManager(const SwitchDirConfig& cfg, const Butterfly& topo, std::uint32_t lineBytes,
                std::uint32_t numNodes, StatRegistry& stats, TxnTracer* tracer = nullptr,
                FaultInjector* fault = nullptr);

  SnoopOutcome onMessage(SwitchId sw, Cycle now, Message& m,
                         std::vector<Message>& spawn) override;

  [[nodiscard]] const SwitchDirCache& cacheAt(SwitchId sw) const;
  [[nodiscard]] bool enabled() const { return cfg_.enabled(); }

  /// Aggregate counters (sums of the per-switch registry counters), for
  /// metrics and tests.
  [[nodiscard]] std::uint64_t ctocInitiated() const { return total(&Counters::ctocInitiated); }
  [[nodiscard]] std::uint64_t readRetries() const { return total(&Counters::readRetries); }
  [[nodiscard]] std::uint64_t writeRetries() const { return total(&Counters::writeRetries); }
  [[nodiscard]] std::uint64_t writeBackServes() const {
    return total(&Counters::writebackServes);
  }
  [[nodiscard]] std::uint64_t copyBackServes() const { return total(&Counters::copybackServes); }
  [[nodiscard]] std::uint64_t deposits() const { return total(&Counters::deposits); }
  [[nodiscard]] std::uint64_t staleSelfHits() const { return total(&Counters::staleSelf); }

  /// Invariant support: total TRANSIENT entries across switches (must be zero
  /// at quiesce).
  [[nodiscard]] std::uint64_t transientEntries() const;

 private:
  /// Per-switch counters ("sd.<flat>.*"), resolved once at construction.
  struct Counters {
    CounterHandle depositSkipped, writereplyOnTransient, deposits, staleSelf, ctocInitiated,
        readRetries, writeRetries, ctocPassedTransient, copybackServes, writebackServes,
        ownerRetryBounced, invalSnooped;
  };

  struct Unit {
    SwitchDirCache cache;
    PortSchedule mainPorts;
    PortSchedule pendingPorts;
    std::uint32_t transientCount = 0;
    Counters c;

    Unit(const SwitchDirConfig& cfg, std::uint32_t lineBytes)
        : cache(cfg.entries, cfg.associativity, lineBytes, cfg.replacementPolicy),
          mainPorts(cfg.snoopPortsPerCycle),
          pendingPorts(cfg.snoopPortsPerCycle * 2) {}
  };

  Unit& unit(SwitchId sw) { return units_[topo_.flat(sw)]; }
  [[nodiscard]] std::uint64_t total(CounterHandle Counters::*counter) const;

  /// Record a snoop-outcome event of traced transaction `txn` at `sw`.
  void trace(std::uint64_t txn, TxnEvent ev, TxnLeg leg, SwitchId sw, Cycle now);
  /// Sink-side NAK: spawn the marked Retry that sends `requester` back to
  /// reissue its request for `block`.
  void bounce(SwitchId sw, Cycle now, TxnLeg leg, Addr block, NodeId requester,
              std::uint64_t txn, std::vector<Message>& spawn);
  /// Answer the TRANSIENT entry's stored requester from the data `m`
  /// carries, and mark `m` with its pid so the home's sharer vector stays
  /// exact (paper 3.2, "marked writeback/copyback").
  void serve(SwitchId sw, Cycle now, const SDEntry& e, Message& m,
             std::vector<Message>& spawn);

  void setTransient(Unit& u, SDEntry& e, NodeId requester, std::uint64_t txn);
  void clearEntry(Unit& u, SDEntry& e);

  /// Reserve directory access ports; returns the contention delay. The
  /// arbitration policy sees the access's protocol phase; which SRAM is
  /// probed (main directory vs pending buffer) stays a structural property
  /// of the message class, per paper 4.3.
  Cycle reservePorts(Unit& u, Cycle now, bool pendingEligible, SDAccessPhase phase);

  SwitchDirConfig cfg_;
  const Butterfly& topo_;
  TxnTracer* const tracer_;
  FaultInjector* const fault_;
  /// Stateless across switches; one instance arbitrates every unit.
  std::unique_ptr<SDArbitrationPolicy> arb_;
  std::vector<Unit> units_;
};

}  // namespace dresar

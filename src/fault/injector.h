// Seeded fault injector driven by a FaultPlan.
//
// One injector per System, constructed ONLY when the plan is enabled: it
// registers `fault.*` counters, and StatRegistry::dump() prints every
// registered name, so an always-on injector would change stat dumps (and the
// JSON documents derived from them) even at zero rates. Components hold a
// plain pointer that is null in fault-free runs — the same pattern the
// transaction tracer uses — keeping the fault-free hot path to one branch.
//
// Each fault class draws from its own SplitMix64 stream so enabling one kind
// of fault never perturbs the draw sequence of another, and a given
// (plan, seed) is bit-reproducible regardless of wall-clock or thread count.
//
// Accounting contract (checked by requireBalanced() at end of run):
// every drop strands exactly one (requester, block) pair; the requester's
// request-timeout reissue — or a fill that races it — consumes the strand and
// counts `fault.recovered`. Delays, entry losses and link stalls perturb
// timing only and need no recovery, so the effective faults are the drops
// alone: `fault.injected_drops` must equal `fault.recovered` in any
// quiescent run.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "interconnect/message.h"

namespace dresar {

class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, StatRegistry& stats);

  /// Messages the network may drop or delay without violating the protocol's
  /// point-to-point ordering assumptions: the request leg only. Home-to-node
  /// traffic rides DirController::sendOrdered FIFO horizons (an Invalidation
  /// must never overtake the WriteReply that granted ownership), so replies
  /// and recalls are off-limits. Marked switch-originated Retries to the home
  /// are also excluded — nothing recovers them, they are pure notifications.
  [[nodiscard]] static bool eligible(const Message& m) {
    return ((m.type == MsgType::ReadRequest || m.type == MsgType::WriteRequest) &&
            m.dst.kind == EndpointKind::Mem && !m.marked) ||
           (m.type == MsgType::Retry && m.dst.kind == EndpointKind::Proc);
  }

  /// Draw the drop decision for an eligible delivery. On a drop, records the
  /// stranded (requester, block) pair for the recovery accounting.
  bool shouldDrop(const Message& m);

  /// Extra delivery delay for an eligible, non-dropped message: 0 most of the
  /// time, else a uniform draw in [1, msgDelayCycles].
  Cycle deliveryDelay(const Message& m);

  /// Draw the entry-loss decision for a switch-directory/switch-cache hit
  /// that is about to serve a request. True = the caller must invalidate the
  /// entry and pass the request through to the home; each loss is one
  /// fallback home lookup.
  bool loseSdEntry();

  // -- link stall (deterministic, no RNG) ------------------------------------

  [[nodiscard]] const LinkStallSpec& linkStall() const { return plan_.linkStall; }

  /// Message-level networks: push a transfer start time past the stall
  /// window, counting the stalled cycles.
  Cycle stallAdjustedStart(Cycle start);

  /// Flit-level networks: true when the stalled switch must skip its grant
  /// pass this cycle (counts one stalled cycle per skip).
  bool stallTickSkipped(Cycle now);

  // -- recovery accounting ---------------------------------------------------

  /// A request timeout fired and the MSHR is being reissued.
  void noteTimeoutReissue() { ++timeoutReissues_; }

  /// Consume the stranded record for (requester, block) if one exists,
  /// counting the recovery. Called from the timeout-reissue path and from
  /// handleFill (a duplicate reply can rescue a dropped reissue).
  void consumeStranded(NodeId requester, Addr block);

  [[nodiscard]] Cycle requestTimeoutCycles() const { return plan_.requestTimeoutCycles; }
  /// Faults that strand a transaction and need recovery: the drops.
  [[nodiscard]] std::uint64_t injectedEffective() const { return injectedDrops_.value(); }
  [[nodiscard]] std::uint64_t recovered() const { return recovered_.value(); }
  [[nodiscard]] std::uint64_t outstandingStranded() const { return stranded_.size(); }

  /// Throw std::runtime_error unless every injected-effective fault has been
  /// recovered and no stranded records remain. Call after the run quiesces.
  void requireBalanced() const;

 private:
  FaultPlan plan_;
  Rng dropRng_;
  Rng delayRng_;
  Rng sdLossRng_;
  /// Outstanding dropped-message records, keyed (requester, block) with a
  /// multiplicity (a reissue of an already-dropped request can drop again
  /// before the first strand is consumed). std::map for deterministic
  /// iteration in diagnostics.
  std::map<std::pair<NodeId, Addr>, std::uint32_t> stranded_;

  CounterHandle injectedDrops_;
  CounterHandle injectedDelays_;
  CounterHandle injectedDelayCycles_;
  CounterHandle injectedSdLosses_;
  CounterHandle injectedStallCycles_;
  CounterHandle timeoutReissues_;
  CounterHandle recovered_;
};

}  // namespace dresar

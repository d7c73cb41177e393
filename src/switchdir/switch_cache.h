// Switch cache (the paper's conclusion proposes combining DRESAR with the
// authors' earlier HPCA-5 "switch cache" framework; this implements that
// extension). Where the switch *directory* captures ownership of dirty
// blocks, the switch *cache* holds the data of recently read clean blocks:
// ReadReplies flowing home -> reader deposit the line, and later reads that
// hit are served directly at the switch, skipping the home entirely.
//
// Coherence: entries are invalidated by every message that makes the cached
// value suspect (WriteRequest, WriteReply, Invalidation, CtoCRequest,
// CopyBack, WriteBack). A switch-served read additionally sends a
// SharerNotify to the home so the full-map directory keeps tracking every
// copy; a notify that finds the block no longer cleanly SHARED makes the
// home invalidate the served reader again (the same fill-then-invalidate
// window the base protocol already tolerates).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"
#include "interconnect/network.h"
#include "switchdir/dir_cache.h"
#include "switchdir/port_schedule.h"
#include "switchdir/sd_policy.h"

namespace dresar {

class SwitchCacheManager : public ISwitchSnoop {
 public:
  /// Each switch unit's counters register in `stats` as "sc.<flat>.*".
  /// `fault` injects entry loss on would-be serves; null in fault-free runs.
  SwitchCacheManager(const SwitchCacheConfig& cfg, const Butterfly& topo,
                     std::uint32_t lineBytes, StatRegistry& stats,
                     FaultInjector* fault = nullptr);

  SnoopOutcome onMessage(SwitchId sw, Cycle now, Message& m,
                         std::vector<Message>& spawn) override;

  [[nodiscard]] bool enabled() const { return cfg_.enabled(); }
  /// Sums of the per-switch registry counters.
  [[nodiscard]] std::uint64_t deposits() const { return total(&Unit::deposits); }
  [[nodiscard]] std::uint64_t serves() const { return total(&Unit::serves); }
  [[nodiscard]] std::uint64_t invalidates() const { return total(&Unit::invalidates); }

 private:
  struct Unit {
    SwitchDirCache tags;  ///< reuse the tag array; state Shared == "clean data"
    PortSchedule ports;
    /// Per-switch counters ("sc.<flat>.*"), resolved once at construction.
    CounterHandle deposits, serves, invalidates;
    Unit(const SwitchCacheConfig& cfg, std::uint32_t lineBytes)
        : tags(cfg.entries, cfg.associativity, lineBytes, cfg.replacementPolicy),
          ports(cfg.snoopPortsPerCycle) {}
  };

  Unit& unit(SwitchId sw) { return units_[topo_.flat(sw)]; }
  [[nodiscard]] std::uint64_t total(CounterHandle Unit::*counter) const;

  SwitchCacheConfig cfg_;
  const Butterfly& topo_;
  FaultInjector* const fault_;
  /// Stateless across switches; one instance arbitrates every unit.
  std::unique_ptr<SDArbitrationPolicy> arb_;
  std::vector<Unit> units_;
};

/// Chains two snoops: the switch directory decides first (it may sink a
/// request to start a dirty transfer); the switch cache sees the message
/// only if it passed. Delays add (both structures are probed in the same
/// switch pipeline).
class SnoopChain : public ISwitchSnoop {
 public:
  SnoopChain(ISwitchSnoop* first, ISwitchSnoop* second) : first_(first), second_(second) {}

  SnoopOutcome onMessage(SwitchId sw, Cycle now, Message& m,
                         std::vector<Message>& spawn) override {
    SnoopOutcome a{true, 0};
    if (first_ != nullptr) a = first_->onMessage(sw, now, m, spawn);
    if (!a.pass) return a;
    SnoopOutcome b{true, 0};
    if (second_ != nullptr) b = second_->onMessage(sw, now, m, spawn);
    return {b.pass, a.extraDelay + b.extraDelay};
  }

 private:
  ISwitchSnoop* first_;
  ISwitchSnoop* second_;
};

}  // namespace dresar

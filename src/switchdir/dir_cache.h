// Set-associative SRAM switch tag array (paper 4.2), shared by the switch
// *directory* (DRESAR ownership hints) and the switch *cache* (clean-data
// capture). Each entry holds the block tag, one of four states, the owner
// pid and — while TRANSIENT — the pid of the requester the switch is
// serving:
//
//   MODIFIED  — dirty-ownership hint (switch directory).
//   SHARED    — clean data captured at the switch (switch cache).
//   TRANSIENT — an in-flight switch-initiated transfer; pinned: replacement
//               never evicts it, so the transfer can never lose its
//               bookkeeping.
//   INVALID   — free way.
//
// Victim selection, and whether a lookup hit refreshes the recency stamp,
// are delegated to a pluggable SDReplacementPolicy (sd_policy.h): the cache
// collects the evictable ways of the set (every valid way that is not
// pinned TRANSIENT — MODIFIED and SHARED alike) and the policy picks.
// Allocation that finds no evictable way is skipped, which is always
// functionally safe (the request simply proceeds to the home node).
//
// Recency stamps are 64-bit values drawn from a per-cache monotonic tick.
// The tick is explicitly aged: when it reaches `stampAgingThreshold` the
// live stamps are rank-compressed (order-preserving renumbering to 1..n) so
// arbitrarily long runs can never alias or overflow the stamp space. The
// default threshold (2^62) is unreachable in practice; tests lower it to
// exercise the renumbering.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fast_mod.h"
#include "common/types.h"

namespace dresar {

class SDReplacementPolicy;

enum class SDState : std::uint8_t { Invalid, Modified, Shared, Transient };

const char* toString(SDState s);

struct SDEntry {
  Addr tag = kInvalidAddr;       ///< block-aligned address (full tag kept for clarity)
  SDState state = SDState::Invalid;
  NodeId owner = kInvalidNode;
  NodeId requester = kInvalidNode;  ///< valid while TRANSIENT
  std::uint64_t txn = 0;  ///< requester's traced transaction (valid while TRANSIENT)
  std::uint64_t lastUse = 0;

  [[nodiscard]] bool valid() const { return state != SDState::Invalid; }
};

class SwitchDirCache {
 public:
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t allocations = 0;
    std::uint64_t evictions = 0;      ///< valid (MODIFIED/SHARED) entries displaced
    std::uint64_t allocFailures = 0;  ///< all ways TRANSIENT, allocation skipped
    std::uint64_t invalidations = 0;
    std::uint64_t stampAgings = 0;    ///< order-preserving stamp renumberings
  };

  /// Stamp-aging threshold far beyond any reachable run length; the explicit
  /// headroom (2^62 << 2^64) guarantees ++tick_ itself can never wrap.
  static constexpr std::uint64_t kDefaultStampAgingThreshold = 1ull << 62;

  /// `replacementPolicy` must name a registered policy (sd_policy.h);
  /// throws std::invalid_argument otherwise.
  SwitchDirCache(std::uint32_t entries, std::uint32_t associativity, std::uint32_t lineBytes,
                 const std::string& replacementPolicy = "lru",
                 std::uint64_t stampAgingThreshold = kDefaultStampAgingThreshold);
  ~SwitchDirCache();

  // Move-only (unique_ptr member); defined in the .cpp where the policy
  // type is complete.
  SwitchDirCache(SwitchDirCache&&) noexcept;
  SwitchDirCache& operator=(SwitchDirCache&&) noexcept;

  /// Lookup without allocation. Returns nullptr on miss. Counts a lookup;
  /// a hit refreshes the recency stamp iff the policy touches on hit.
  SDEntry* find(Addr block);
  [[nodiscard]] const SDEntry* peek(Addr block) const;  ///< no stats/stamp side effects

  /// Find-or-allocate for a deposit. Returns nullptr if every way in the
  /// set is pinned TRANSIENT.
  SDEntry* allocate(Addr block);

  void invalidate(SDEntry& e);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t entries() const { return static_cast<std::uint32_t>(ways_.size()); }
  [[nodiscard]] std::uint32_t associativity() const { return assoc_; }
  [[nodiscard]] const char* replacementPolicyName() const;

  /// Number of live entries in each state (test/invariant support).
  [[nodiscard]] std::uint64_t countState(SDState s) const;

  /// Visit every valid entry (invariant checker support).
  template <typename Fn>
  void forEachValid(Fn&& fn) const {
    for (const auto& e : ways_) {
      if (e.valid()) fn(e);
    }
  }

 private:
  [[nodiscard]] std::size_t setBase(Addr block) const;
  /// Next recency stamp, aging (rank-compressing) the live stamps first when
  /// the tick has reached the threshold.
  std::uint64_t nextStamp();
  void renumberStamps();

  std::uint32_t assoc_;
  FastMod sets_;  ///< set count; setBase() reduces by it
  std::uint32_t lineShift_;
  std::vector<SDEntry> ways_;  ///< sets * assoc_, set-major
  std::unique_ptr<SDReplacementPolicy> policy_;
  bool touchOnHit_;            ///< policy_->touchOnHit(), cached off the hot path
  std::uint64_t tick_ = 0;
  std::uint64_t agingThreshold_;
  std::vector<SDEntry*> victimScratch_;  ///< per-set candidate buffer (assoc_ slots)
  Stats stats_;
};

}  // namespace dresar

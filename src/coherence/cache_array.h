// Set-associative cache tag arrays. CacheArray is the coherent L2 (MSI
// states); L1Filter is the small first-level tag array used for hit timing —
// it tracks presence only and is kept a strict subset of the L2.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/fast_mod.h"
#include "common/types.h"

namespace dresar {

enum class CacheState : std::uint8_t { I, S, M };

const char* toString(CacheState s);

/// One 16-byte tag-store line. All-zero bytes are an invalid line (state I),
/// so zero-filled storage is an empty cache.
struct CacheLine {
  Addr tag = 0;
  std::uint32_t lastUse = 0;  ///< LRU stamp; 0 = never stamped
  CacheState state = CacheState::I;

  [[nodiscard]] bool valid() const { return state != CacheState::I; }
};
static_assert(sizeof(CacheLine) == 16, "CacheLine must stay a 16-byte tag");

/// Result of making room for a fill.
struct Victim {
  bool dirty = false;       ///< evicted line was MODIFIED (needs WriteBack)
  bool evicted = false;     ///< a valid line was displaced
  Addr block = kInvalidAddr;
};

/// A view over a tag store its owner allocates zero-filled: the trace model
/// carves every node's store out of one huge-page-backed ZeroedRegion, the
/// event-driven controller keeps a vector of its own. Recency stamps are
/// 32-bit; when the tick reaches `stampAgingThreshold` the stamped lines are
/// renumbered 1..n in order (as SwitchDirCache does), so LRU victims never
/// change. The default is the stamp's saturation point; tests pass a tiny
/// one to exercise aging.
class CacheArray {
 public:
  static constexpr std::uint32_t kDefaultStampAgingThreshold =
      std::numeric_limits<std::uint32_t>::max();

  /// Lines a store of this geometry needs; throws std::invalid_argument on
  /// a bad geometry.
  static std::size_t linesFor(std::uint32_t bytes, std::uint32_t associativity,
                              std::uint32_t lineBytes);

  /// `storage` must be zero-filled and hold exactly linesFor(geometry)
  /// lines (std::invalid_argument otherwise); it must outlive the array.
  CacheArray(std::span<CacheLine> storage, std::uint32_t bytes, std::uint32_t associativity,
             std::uint32_t lineBytes,
             std::uint32_t stampAgingThreshold = kDefaultStampAgingThreshold);
  // Two arrays over one store would keep separate recency ticks.
  CacheArray(const CacheArray&) = delete;
  CacheArray& operator=(const CacheArray&) = delete;
  CacheArray(CacheArray&&) = default;
  CacheArray& operator=(CacheArray&&) = default;

  /// Lookup; nullptr on miss. Updates LRU on hit.
  CacheLine* find(Addr block);
  [[nodiscard]] const CacheLine* peek(Addr block) const;

  /// Find-or-allocate; always succeeds (LRU victim). `victim` reports any
  /// displaced line so the controller can issue a WriteBack.
  CacheLine* allocate(Addr block, Victim& victim);

  void invalidate(CacheLine& line) { line = CacheLine{}; }

  [[nodiscard]] std::uint32_t lines() const { return sets_.divisor() * assoc_; }
  [[nodiscard]] std::uint64_t countState(CacheState s) const;
  /// Order-preserving stamp renumberings so far (test support).
  [[nodiscard]] std::uint64_t stampAgings() const { return stampAgings_; }

  void forEachValid(const std::function<void(const CacheLine&)>& fn) const;

 private:
  [[nodiscard]] std::size_t setBase(Addr block) const;
  /// Next recency stamp, renumbering the live stamps first when the tick has
  /// reached the aging threshold.
  std::uint32_t nextStamp();
  void renumberStamps();

  std::uint32_t assoc_;
  FastMod sets_;  ///< set count; setBase() reduces by it
  std::uint32_t lineShift_;
  std::span<CacheLine> ways_;  ///< lines(), set-major
  std::uint32_t tick_ = 0;
  std::uint32_t agingThreshold_;
  std::uint64_t stampAgings_ = 0;
};

/// Presence-only L1 tag array (timing filter).
class L1Filter {
 public:
  L1Filter(std::uint32_t bytes, std::uint32_t associativity, std::uint32_t lineBytes);

  [[nodiscard]] bool contains(Addr block) const;
  void insert(Addr block);
  void remove(Addr block);

 private:
  [[nodiscard]] std::size_t setBase(Addr block) const;

  std::uint32_t assoc_;
  FastMod sets_;  ///< set count; setBase() reduces by it
  std::uint32_t lineShift_;
  struct Slot {
    Addr tag = kInvalidAddr;
    std::uint64_t lastUse = 0;
  };
  std::vector<Slot> ways_;
  std::uint64_t tick_ = 0;
};

}  // namespace dresar

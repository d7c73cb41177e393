// Flat per-block record table for the trace-driven simulator: one
// open-addressed, linear-probed array of entries keyed by block address.
// Each entry carries its own key (`Entry::block`), so a probe touches one
// cache line instead of chasing a hash-map node. Empty slots hold
// kInvalidAddr, so it is never a valid key; it is not a multiple of any line
// size of two bytes or more.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace dresar {

/// Multiplication by 2^64/phi (odd, so a bijection on 64-bit values): the
/// top bits spread line-aligned (low-bits-zero) block addresses evenly.
inline std::uint64_t fibonacciScramble(Addr block) { return block * 0x9E3779B97F4A7C15ull; }

template <class Entry>
class BlockTable {
 public:
  BlockTable() : slots_(kInitialCapacity) {}

  /// The entry for `block`, or nullptr. Never grows the table.
  Entry* find(Addr block) {
    for (std::size_t i = home(block);; i = (i + 1) & mask()) {
      Entry& e = slots_[i];
      if (e.block == block) return &e;
      if (e.block == kInvalidAddr) return nullptr;
    }
  }

  /// The entry for `block`, default-constructed on first use. Inserting may
  /// grow the table, which invalidates every Entry pointer and reference.
  Entry& findOrInsert(Addr block) {
    for (std::size_t i = home(block);; i = (i + 1) & mask()) {
      Entry& e = slots_[i];
      if (e.block == block) return e;
      if (e.block != kInvalidAddr) continue;
      if (4 * (size_ + 1) <= 3 * slots_.size()) {
        ++size_;
        e.block = block;
        return e;
      }
      grow();
      return findOrInsert(block);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Visit every entry in slot order.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const Entry& e : slots_) {
      if (e.block != kInvalidAddr) fn(e);
    }
  }

 private:
  static constexpr std::size_t kInitialCapacity = 1024;  // a power of two

  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  [[nodiscard]] std::size_t home(Addr block) const {
    return static_cast<std::size_t>(fibonacciScramble(block) >> shift_);
  }

  void grow() {
    std::vector<Entry> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Entry& e : old) {
      if (e.block == kInvalidAddr) continue;
      std::size_t i = home(e.block);
      while (slots_[i].block != kInvalidAddr) i = (i + 1) & mask();
      slots_[i] = e;
    }
  }

  std::vector<Entry> slots_;
  std::size_t size_ = 0;
  int shift_ = 64 - std::countr_zero(kInitialCapacity);  ///< 64 - log2(slots_.size())
};

}  // namespace dresar

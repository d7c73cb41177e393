// Set-index reduction by a run-time-constant divisor.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace dresar {

/// `a % d` for a fixed non-zero 32-bit `d`. A power-of-two divisor, the
/// geometry of every shipped cache and switch directory, takes a mask
/// instead of a hardware `div`; any other divisor takes `%`, so
/// non-power-of-two set counts stay legal and exact.
///
/// Set-index reductions (CacheArray, L1Filter, SwitchDirCache) divide by
/// the set count on every probe, and a dependent 64-bit `div` was the
/// slowest step there. The choice is made here, once per divisor, so call
/// sites have one path whatever the geometry.
class FastMod {
 public:
  explicit FastMod(std::uint32_t d) : d_(d), mask_(d - 1), pow2_((d & (d - 1)) == 0) {
    if (d == 0) throw std::invalid_argument("FastMod: divisor must be non-zero");
  }

  [[nodiscard]] std::uint64_t mod(std::uint64_t a) const { return pow2_ ? a & mask_ : a % d_; }

  [[nodiscard]] std::uint32_t divisor() const { return d_; }

 private:
  std::uint32_t d_;
  std::uint32_t mask_;
  bool pow2_;
};

}  // namespace dresar

#include "common/fast_mod.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace dresar {
namespace {

constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();

TEST(FastMod, MatchesTheHardwareRemainderAtTheEdges) {
  std::vector<std::uint32_t> divisors = {1, 3, 250, std::numeric_limits<std::uint32_t>::max()};
  for (int k = 0; k < 32; ++k) divisors.push_back(std::uint32_t{1} << k);
  for (const std::uint32_t d : divisors) {
    const FastMod fm(d);
    EXPECT_EQ(fm.divisor(), d);
    for (const std::uint64_t a : {std::uint64_t{0}, std::uint64_t{d} - 1, std::uint64_t{d},
                                  std::uint64_t{d} + 1, kMax64, kMax64 - 1}) {
      EXPECT_EQ(fm.mod(a), a % d) << a << " % " << d;
    }
  }
}

TEST(FastMod, RejectsAZeroDivisor) {
  EXPECT_THROW(FastMod(0), std::invalid_argument);
}

}  // namespace
}  // namespace dresar

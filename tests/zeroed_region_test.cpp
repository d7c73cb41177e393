#include "common/zeroed_region.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cerrno>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace dresar {
namespace {

constexpr std::size_t kPage = 4096;

/// True when [p, p + kPage) is mapped in this process (mincore fails with
/// ENOMEM on an unmapped range).
bool mapped(const void* p) {
  unsigned char resident = 0;
  return ::mincore(const_cast<void*>(p), kPage, &resident) == 0 || errno != ENOMEM;
}

TEST(ZeroedRegion, IsZeroFilledAndHugePageAligned) {
  const ZeroedRegion r(3 * ZeroedRegion::kHugePageBytes + 100);
  ASSERT_NE(r.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r.data()) % ZeroedRegion::kHugePageBytes, 0u);
  EXPECT_EQ(r.size(), 4 * ZeroedRegion::kHugePageBytes);  // whole huge pages
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < r.size(); i += 512) nonzero += r.data()[i] != std::byte{0};
  for (std::size_t i = r.size() - kPage; i < r.size(); ++i) nonzero += r.data()[i] != std::byte{0};
  EXPECT_EQ(nonzero, 0u);
  r.data()[r.size() - 1] = std::byte{7};  // the whole rounded size is writable
  EXPECT_EQ(r.data()[r.size() - 1], std::byte{7});
}

TEST(ZeroedRegion, EmptyRegionMapsNothing) {
  const ZeroedRegion none;
  EXPECT_EQ(none.data(), nullptr);
  EXPECT_EQ(none.size(), 0u);
  const ZeroedRegion zero(0);
  EXPECT_EQ(zero.data(), nullptr);
  EXPECT_THROW((void)zero.first<int>(1), std::out_of_range);
}

TEST(ZeroedRegion, FirstViewsTypedObjectsWithinTheRegion) {
  const ZeroedRegion r(100 * sizeof(std::uint64_t));
  const auto words = r.first<std::uint64_t>(100);
  ASSERT_EQ(words.size(), 100u);
  EXPECT_EQ(static_cast<void*>(words.data()), static_cast<void*>(r.data()));
  EXPECT_EQ(words[99], 0u);
  EXPECT_THROW((void)r.first<std::uint64_t>(r.size() / sizeof(std::uint64_t) + 1),
               std::out_of_range);
}

TEST(ZeroedRegion, MoveLeavesSourceEmptyAndUnmapsOnce) {
  std::byte* base = nullptr;
  {
    ZeroedRegion dst;
    {
      ZeroedRegion src(kPage);
      base = src.data();
      base[10] = std::byte{42};
      dst = std::move(src);
      EXPECT_EQ(src.data(), nullptr);  // NOLINT(bugprone-use-after-move)
      EXPECT_EQ(src.size(), 0u);
    }  // the empty source unmaps nothing
    ASSERT_EQ(dst.data(), base);
    EXPECT_EQ(dst.data()[10], std::byte{42});
    ZeroedRegion moved(std::move(dst));
    EXPECT_EQ(dst.data(), nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.data(), base);
    moved.data()[11] = std::byte{1};  // still mapped after both moves
    EXPECT_TRUE(mapped(base));
  }
  EXPECT_FALSE(mapped(base));
}

TEST(ZeroedRegion, MoveAssignReleasesTheOldMapping) {
  ZeroedRegion a(kPage);
  std::byte* const old = a.data();
  a = ZeroedRegion(kPage);
  EXPECT_NE(a.data(), old);
  EXPECT_FALSE(mapped(old));
  EXPECT_TRUE(mapped(a.data()));
  ZeroedRegion& alias = a;
  a = std::move(alias);  // self-move keeps the mapping
  EXPECT_TRUE(mapped(a.data()));
}

}  // namespace
}  // namespace dresar

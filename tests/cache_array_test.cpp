#include "coherence/cache_array.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace dresar {
namespace {

/// Zero-filled vector storage, a base class so it is built before the view.
struct LineStorage {
  std::vector<CacheLine> storage;
};

/// A CacheArray over its own vector of lines, sized for its geometry.
struct VectorCache : LineStorage, CacheArray {
  VectorCache(std::uint32_t bytes, std::uint32_t assoc, std::uint32_t lineBytes,
              std::uint32_t stampAgingThreshold = kDefaultStampAgingThreshold)
      : LineStorage{std::vector<CacheLine>(CacheArray::linesFor(bytes, assoc, lineBytes))},
        CacheArray(storage, bytes, assoc, lineBytes, stampAgingThreshold) {}
};

TEST(CacheArray, MissAllocateHit) {
  VectorCache c(1024, 2, 32);
  EXPECT_EQ(c.find(0x100), nullptr);
  Victim v;
  CacheLine* l = c.allocate(0x100, v);
  ASSERT_NE(l, nullptr);
  EXPECT_FALSE(v.evicted);
  l->state = CacheState::S;
  EXPECT_NE(c.find(0x100), nullptr);
}

TEST(CacheArray, EvictionReportsDirtyVictim) {
  // One set, two ways: 2*32 bytes.
  VectorCache c(64, 2, 32);
  Victim v;
  c.allocate(0x0, v)->state = CacheState::M;
  c.allocate(0x40, v)->state = CacheState::S;
  c.find(0x40);  // make 0x0 LRU
  CacheLine* l = c.allocate(0x80, v);
  ASSERT_NE(l, nullptr);
  EXPECT_TRUE(v.evicted);
  EXPECT_TRUE(v.dirty);
  EXPECT_EQ(v.block, 0x0u);
}

TEST(CacheArray, CleanVictimNeedsNoWriteBack) {
  VectorCache c(64, 2, 32);
  Victim v;
  c.allocate(0x0, v)->state = CacheState::S;
  c.allocate(0x40, v)->state = CacheState::S;
  c.find(0x40);
  c.allocate(0x80, v);
  EXPECT_TRUE(v.evicted);
  EXPECT_FALSE(v.dirty);
}

TEST(CacheArray, AllocateExistingDoesNotEvict) {
  VectorCache c(64, 2, 32);
  Victim v;
  c.allocate(0x0, v)->state = CacheState::M;
  c.allocate(0x40, v)->state = CacheState::M;
  CacheLine* l = c.allocate(0x0, v);
  EXPECT_FALSE(v.evicted);
  EXPECT_EQ(l->state, CacheState::M);
}

TEST(CacheArray, CountState) {
  VectorCache c(1024, 4, 32);
  Victim v;
  c.allocate(0x20, v)->state = CacheState::M;
  c.allocate(0x40, v)->state = CacheState::S;
  c.allocate(0x60, v)->state = CacheState::S;
  EXPECT_EQ(c.countState(CacheState::M), 1u);
  EXPECT_EQ(c.countState(CacheState::S), 2u);
}

TEST(CacheArray, GeometryValidation) {
  EXPECT_THROW(VectorCache(100, 2, 32), std::invalid_argument);
  EXPECT_THROW(VectorCache(1024, 2, 24), std::invalid_argument);
  EXPECT_THROW(VectorCache(1024, 0, 32), std::invalid_argument);
  EXPECT_THROW(VectorCache(1024, 2, 32, /*stampAgingThreshold=*/0), std::invalid_argument);
}

TEST(CacheArray, StorageSizeMustMatchGeometry) {
  // 1024 bytes of 32-byte lines is 32 lines.
  EXPECT_EQ(CacheArray::linesFor(1024, 2, 32), 32u);
  EXPECT_THROW((void)CacheArray::linesFor(100, 2, 32), std::invalid_argument);
  std::vector<CacheLine> tooFew(31), tooMany(33), exact(32);
  EXPECT_THROW(CacheArray(tooFew, 1024, 2, 32), std::invalid_argument);
  EXPECT_THROW(CacheArray(tooMany, 1024, 2, 32), std::invalid_argument);
  EXPECT_THROW(CacheArray({}, 1024, 2, 32), std::invalid_argument);
  const CacheArray c(exact, 1024, 2, 32);
  EXPECT_EQ(c.lines(), 32u);
}

TEST(CacheArray, InvalidLineIsAllZeroBytes) {
  // Tag stores are zero-filled, so a zero-filled line must read as invalid.
  const CacheLine zero{};
  EXPECT_FALSE(zero.valid());
  EXPECT_EQ(zero.tag, 0u);
  EXPECT_EQ(zero.lastUse, 0u);
  VectorCache c(1024, 4, 32);
  EXPECT_EQ(c.find(0x0), nullptr);              // block 0 is not a hit on an empty line
}

TEST(CacheArray, StampAgingKeepsVictimSequence) {
  // A tiny aging threshold renumbers the stamps every few accesses; LRU
  // must still pick exactly the victims the saturating default picks.
  VectorCache plain(4096, 4, 32);
  VectorCache aged(4096, 4, 32, /*stampAgingThreshold=*/200);
  Rng rng(2024);
  for (int i = 0; i < 200'000; ++i) {
    const Addr block = rng.below(1024) * 32;
    const std::uint64_t op = rng.below(8);
    if (op < 3) {
      CacheLine* a = plain.find(block);
      CacheLine* b = aged.find(block);
      ASSERT_EQ(a == nullptr, b == nullptr) << "access " << i;
      if (op == 0 && a != nullptr) {
        plain.invalidate(*a);
        aged.invalidate(*b);
      }
    } else {
      Victim va, vb;
      const auto state = op == 7 ? CacheState::M : CacheState::S;
      plain.allocate(block, va)->state = state;
      aged.allocate(block, vb)->state = state;
      ASSERT_EQ(va.evicted, vb.evicted) << "access " << i;
      ASSERT_EQ(va.dirty, vb.dirty) << "access " << i;
      ASSERT_EQ(va.block, vb.block) << "access " << i;
    }
  }
  EXPECT_GT(aged.stampAgings(), 1000u);
  EXPECT_EQ(plain.stampAgings(), 0u);
  EXPECT_EQ(plain.countState(CacheState::M), aged.countState(CacheState::M));
  EXPECT_EQ(plain.countState(CacheState::S), aged.countState(CacheState::S));
}

TEST(L1Filter, InsertContainsRemove) {
  L1Filter f(256, 2, 32);
  EXPECT_FALSE(f.contains(0x100));
  f.insert(0x100);
  EXPECT_TRUE(f.contains(0x100));
  f.remove(0x100);
  EXPECT_FALSE(f.contains(0x100));
}

TEST(L1Filter, LruReplacement) {
  // One set with 2 ways: 2*32B.
  L1Filter f(64, 2, 32);
  f.insert(0x0);
  f.insert(0x40);
  f.insert(0x0);   // refresh
  f.insert(0x80);  // displaces 0x40
  EXPECT_TRUE(f.contains(0x0));
  EXPECT_FALSE(f.contains(0x40));
  EXPECT_TRUE(f.contains(0x80));
}

}  // namespace
}  // namespace dresar

#include "coherence/cache_array.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dresar {
namespace {

TEST(CacheArray, MissAllocateHit) {
  CacheArray c(1024, 2, 32);
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
  CacheArray c(64, 2, 32);
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
  CacheArray c(64, 2, 32);
  Victim v;
  c.allocate(0x0, v)->state = CacheState::S;
  c.allocate(0x40, v)->state = CacheState::S;
  c.find(0x40);
  c.allocate(0x80, v);
  EXPECT_TRUE(v.evicted);
  EXPECT_FALSE(v.dirty);
}

TEST(CacheArray, AllocateExistingDoesNotEvict) {
  CacheArray c(64, 2, 32);
  Victim v;
  c.allocate(0x0, v)->state = CacheState::M;
  c.allocate(0x40, v)->state = CacheState::M;
  CacheLine* l = c.allocate(0x0, v);
  EXPECT_FALSE(v.evicted);
  EXPECT_EQ(l->state, CacheState::M);
}

TEST(CacheArray, CountState) {
  CacheArray c(1024, 4, 32);
  Victim v;
  c.allocate(0x20, v)->state = CacheState::M;
  c.allocate(0x40, v)->state = CacheState::S;
  c.allocate(0x60, v)->state = CacheState::S;
  EXPECT_EQ(c.countState(CacheState::M), 1u);
  EXPECT_EQ(c.countState(CacheState::S), 2u);
}

TEST(CacheArray, GeometryValidation) {
  EXPECT_THROW(CacheArray(100, 2, 32), std::invalid_argument);
  EXPECT_THROW(CacheArray(1024, 2, 24), std::invalid_argument);
  EXPECT_THROW(CacheArray(1024, 0, 32), std::invalid_argument);
  EXPECT_THROW(CacheArray(1024, 2, 32, /*stampAgingThreshold=*/0), std::invalid_argument);
}

TEST(CacheArray, InvalidLineIsAllZeroBytes) {
  // The tag store is calloc'd, so a zero-filled line must read as invalid.
  const CacheLine zero{};
  EXPECT_FALSE(zero.valid());
  EXPECT_EQ(zero.tag, 0u);
  EXPECT_EQ(zero.lastUse, 0u);
  CacheArray c(1024, 4, 32);
  EXPECT_EQ(c.find(0x0), nullptr);              // block 0 is not a hit on an empty line
}

TEST(CacheArray, StampAgingKeepsVictimSequence) {
  // A tiny aging threshold renumbers the stamps every few accesses; LRU
  // must still pick exactly the victims the saturating default picks.
  CacheArray plain(4096, 4, 32);
  CacheArray aged(4096, 4, 32, /*stampAgingThreshold=*/200);
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

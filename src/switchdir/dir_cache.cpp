#include "switchdir/dir_cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "switchdir/sd_policy.h"

namespace dresar {

namespace {
/// Set count of a geometry; throws std::invalid_argument on a bad one.
std::uint32_t setsFor(std::uint32_t entries, std::uint32_t assoc) {
  if (entries == 0 || assoc == 0 || entries % assoc != 0)
    throw std::invalid_argument("SwitchDirCache: entries must be a positive multiple of assoc");
  return entries / assoc;
}
}  // namespace

const char* toString(SDState s) {
  switch (s) {
    case SDState::Invalid: return "Invalid";
    case SDState::Modified: return "Modified";
    case SDState::Shared: return "Shared";
    case SDState::Transient: return "Transient";
  }
  return "?";
}

SwitchDirCache::SwitchDirCache(std::uint32_t entries, std::uint32_t associativity,
                               std::uint32_t lineBytes, const std::string& replacementPolicy,
                               std::uint64_t stampAgingThreshold)
    : assoc_(associativity),
      sets_(setsFor(entries, associativity)),
      lineShift_(static_cast<std::uint32_t>(std::countr_zero(lineBytes))),
      policy_(makeSdReplacementPolicy(replacementPolicy)),
      touchOnHit_(policy_->touchOnHit()),
      agingThreshold_(stampAgingThreshold) {
  if (lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0)
    throw std::invalid_argument("SwitchDirCache: lineBytes must be a power of two");
  if (stampAgingThreshold == 0)
    throw std::invalid_argument("SwitchDirCache: stampAgingThreshold must be positive");
  ways_.resize(entries);
  victimScratch_.resize(assoc_);
}

SwitchDirCache::~SwitchDirCache() = default;
SwitchDirCache::SwitchDirCache(SwitchDirCache&&) noexcept = default;
SwitchDirCache& SwitchDirCache::operator=(SwitchDirCache&&) noexcept = default;

const char* SwitchDirCache::replacementPolicyName() const { return policy_->name(); }

std::size_t SwitchDirCache::setBase(Addr block) const {
  return static_cast<std::size_t>(sets_.mod(block >> lineShift_)) * assoc_;
}

std::uint64_t SwitchDirCache::nextStamp() {
  if (tick_ >= agingThreshold_) renumberStamps();
  return ++tick_;
}

void SwitchDirCache::renumberStamps() {
  // Order-preserving rank compression: live stamps become 1..n, the tick
  // restarts past them. Stamps are unique (each came from a distinct ++tick_),
  // so the sort is total and the relative LRU/FIFO order is exactly kept.
  std::vector<SDEntry*> live;
  live.reserve(ways_.size());
  for (SDEntry& e : ways_) {
    if (e.valid()) live.push_back(&e);
  }
  std::sort(live.begin(), live.end(),
            [](const SDEntry* a, const SDEntry* b) { return a->lastUse < b->lastUse; });
  std::uint64_t stamp = 0;
  for (SDEntry* e : live) e->lastUse = ++stamp;
  tick_ = stamp;
  ++stats_.stampAgings;
}

SDEntry* SwitchDirCache::find(Addr block) {
  ++stats_.lookups;
  const std::size_t base = setBase(block);
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    SDEntry& e = ways_[base + w];
    if (e.valid() && e.tag == block) {
      ++stats_.hits;
      if (touchOnHit_) e.lastUse = nextStamp();
      return &e;
    }
  }
  return nullptr;
}

const SDEntry* SwitchDirCache::peek(Addr block) const {
  const std::size_t base = setBase(block);
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    const SDEntry& e = ways_[base + w];
    if (e.valid() && e.tag == block) return &e;
  }
  return nullptr;
}

SDEntry* SwitchDirCache::allocate(Addr block) {
  const std::size_t base = setBase(block);
  SDEntry* invalid = nullptr;
  std::size_t evictable = 0;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    SDEntry& e = ways_[base + w];
    if (e.valid() && e.tag == block) {
      if (touchOnHit_) e.lastUse = nextStamp();
      return &e;
    }
    if (!e.valid()) {
      if (invalid == nullptr) invalid = &e;
    } else if (e.state != SDState::Transient) {
      // Every unpinned valid way — MODIFIED and SHARED alike — is a
      // replacement candidate. (A previous revision only offered MODIFIED
      // ways, silently making clean SHARED entries immortal.)
      victimScratch_[evictable++] = &e;
    }
  }
  SDEntry* victim = invalid;
  if (victim == nullptr && evictable > 0) {
    victim = policy_->pickVictim(victimScratch_.data(), evictable);
  }
  if (victim == nullptr) {
    ++stats_.allocFailures;
    return nullptr;
  }
  if (victim->valid()) ++stats_.evictions;
  ++stats_.allocations;
  *victim = SDEntry{};
  victim->tag = block;
  victim->lastUse = nextStamp();
  return victim;
}

void SwitchDirCache::invalidate(SDEntry& e) {
  ++stats_.invalidations;
  e = SDEntry{};
}

std::uint64_t SwitchDirCache::countState(SDState s) const {
  std::uint64_t n = 0;
  for (const auto& e : ways_) {
    if (e.valid() && e.state == s) ++n;
  }
  return n;
}

}  // namespace dresar

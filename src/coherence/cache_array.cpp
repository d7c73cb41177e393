#include "coherence/cache_array.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dresar {

namespace {
/// Set count of a geometry; throws std::invalid_argument on a bad one.
std::uint32_t setsFor(std::uint32_t bytes, std::uint32_t assoc, std::uint32_t lineBytes) {
  if (lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0)
    throw std::invalid_argument("cache: lineBytes must be a power of two");
  if (assoc == 0 || bytes == 0 || bytes % (assoc * lineBytes) != 0)
    throw std::invalid_argument("cache: size must be a positive multiple of assoc*line");
  return bytes / (assoc * lineBytes);
}
}  // namespace

const char* toString(CacheState s) {
  switch (s) {
    case CacheState::I: return "I";
    case CacheState::S: return "S";
    case CacheState::M: return "M";
  }
  return "?";
}

std::size_t CacheArray::linesFor(std::uint32_t bytes, std::uint32_t associativity,
                                 std::uint32_t lineBytes) {
  return static_cast<std::size_t>(setsFor(bytes, associativity, lineBytes)) * associativity;
}

CacheArray::CacheArray(std::span<CacheLine> storage, std::uint32_t bytes,
                       std::uint32_t associativity, std::uint32_t lineBytes,
                       std::uint32_t stampAgingThreshold)
    : assoc_(associativity),
      sets_(setsFor(bytes, associativity, lineBytes)),
      lineShift_(static_cast<std::uint32_t>(std::countr_zero(lineBytes))),
      ways_(storage),
      agingThreshold_(stampAgingThreshold) {
  if (storage.size() != lines())
    throw std::invalid_argument("cache: storage size does not match the geometry");
  if (stampAgingThreshold == 0)
    throw std::invalid_argument("cache: stampAgingThreshold must be positive");
}

std::size_t CacheArray::setBase(Addr block) const {
  return static_cast<std::size_t>(sets_.mod(block >> lineShift_)) * assoc_;
}

std::uint32_t CacheArray::nextStamp() {
  if (tick_ >= agingThreshold_) renumberStamps();
  return ++tick_;
}

void CacheArray::renumberStamps() {
  // Every stamped line (valid, or allocated and not yet filled) keeps its
  // relative order and the tick restarts past them. Stamps are unique (each
  // came from a distinct nextStamp()), so LRU picks exactly the same victims.
  std::vector<CacheLine*> live;
  for (std::uint32_t i = 0; i < lines(); ++i) {
    if (ways_[i].lastUse != 0) live.push_back(&ways_[i]);
  }
  std::sort(live.begin(), live.end(),
            [](const CacheLine* a, const CacheLine* b) { return a->lastUse < b->lastUse; });
  std::uint32_t stamp = 0;
  for (CacheLine* l : live) l->lastUse = ++stamp;
  tick_ = stamp;
  ++stampAgings_;
}

CacheLine* CacheArray::find(Addr block) {
  const std::size_t base = setBase(block);
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    CacheLine& l = ways_[base + w];
    if (l.valid() && l.tag == block) {
      l.lastUse = nextStamp();
      return &l;
    }
  }
  return nullptr;
}

const CacheLine* CacheArray::peek(Addr block) const {
  const std::size_t base = setBase(block);
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    const CacheLine& l = ways_[base + w];
    if (l.valid() && l.tag == block) return &l;
  }
  return nullptr;
}

CacheLine* CacheArray::allocate(Addr block, Victim& victim) {
  victim = Victim{};
  const std::size_t base = setBase(block);
  CacheLine* invalid = nullptr;
  CacheLine* lru = nullptr;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    CacheLine& l = ways_[base + w];
    if (l.valid() && l.tag == block) {
      l.lastUse = nextStamp();
      return &l;
    }
    if (!l.valid()) {
      if (invalid == nullptr) invalid = &l;
    } else if (lru == nullptr || l.lastUse < lru->lastUse) {
      lru = &l;
    }
  }
  CacheLine* slot = invalid != nullptr ? invalid : lru;
  if (slot->valid()) {
    victim.evicted = true;
    victim.dirty = slot->state == CacheState::M;
    victim.block = slot->tag;
  }
  *slot = CacheLine{};
  slot->tag = block;
  slot->lastUse = nextStamp();
  return slot;
}

std::uint64_t CacheArray::countState(CacheState s) const {
  std::uint64_t n = 0;
  for (std::uint32_t i = 0; i < lines(); ++i) {
    if (ways_[i].valid() && ways_[i].state == s) ++n;
  }
  return n;
}

L1Filter::L1Filter(std::uint32_t bytes, std::uint32_t associativity, std::uint32_t lineBytes)
    : assoc_(associativity),
      sets_(setsFor(bytes, associativity, lineBytes)),
      lineShift_(static_cast<std::uint32_t>(std::countr_zero(lineBytes))),
      ways_(static_cast<std::size_t>(sets_.divisor()) * assoc_) {}

std::size_t L1Filter::setBase(Addr block) const {
  return static_cast<std::size_t>(sets_.mod(block >> lineShift_)) * assoc_;
}

bool L1Filter::contains(Addr block) const {
  const std::size_t base = setBase(block);
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (ways_[base + w].tag == block) return true;
  }
  return false;
}

void L1Filter::insert(Addr block) {
  const std::size_t base = setBase(block);
  Slot* lru = nullptr;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    Slot& s = ways_[base + w];
    if (s.tag == block) {
      s.lastUse = ++tick_;
      return;
    }
    if (lru == nullptr || s.lastUse < lru->lastUse) lru = &s;
  }
  lru->tag = block;
  lru->lastUse = ++tick_;
}

void L1Filter::remove(Addr block) {
  const std::size_t base = setBase(block);
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    Slot& s = ways_[base + w];
    if (s.tag == block) {
      s = Slot{};
      return;
    }
  }
}

}  // namespace dresar

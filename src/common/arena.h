// Slab/arena allocation for hot-path simulation objects (in-flight message
// state, MSHR map nodes). General-purpose new/delete on these paths costs a
// malloc round trip per coherence event; the Arena instead carves fixed
// 64 KiB slabs into size-class chunks and recycles freed chunks on per-class
// free lists, so steady-state allocation is a pointer pop. Each Arena has
// one owner within one simulation (the event queue, a cache controller), no
// locks, and everything is returned to the OS when the Arena dies — matching
// the one-Simulation-per-job isolation the sweep harness relies on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace dresar {

class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (void* s : slabs_) ::operator delete(s, std::align_val_t(kChunkAlign));
  }

  /// Allocate `bytes` with alignment <= kChunkAlign. Small requests come from
  /// a recycled size-class free list or a fresh slab; requests beyond the
  /// largest class (bucket arrays of a grown hash map, etc.) pass through to
  /// operator new.
  void* allocate(std::size_t bytes, std::size_t align) {
    if (bytes > kMaxSmall || align > kChunkAlign) {
      return ::operator new(bytes, std::align_val_t(align > kChunkAlign ? align : kChunkAlign));
    }
    const std::size_t cls = classOf(bytes);
    if (FreeNode* n = free_[cls]; n != nullptr) {
      free_[cls] = n->next;
      return n;
    }
    return carve(cls);
  }

  /// Return a block obtained from allocate() with the same size/alignment.
  void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
    if (p == nullptr) return;
    if (bytes > kMaxSmall || align > kChunkAlign) {
      ::operator delete(p, std::align_val_t(align > kChunkAlign ? align : kChunkAlign));
      return;
    }
    const std::size_t cls = classOf(bytes);
    auto* n = static_cast<FreeNode*>(p);
    n->next = free_[cls];
    free_[cls] = n;
  }

  /// Slabs held (diagnostics; steady-state workloads plateau quickly).
  [[nodiscard]] std::size_t slabCount() const noexcept { return slabs_.size(); }

  static constexpr std::size_t kChunkAlign = 16;  ///< covers __int128 payloads
  static constexpr std::size_t kSlabBytes = 64 * 1024;
  static constexpr std::size_t kMaxSmall = 1024;  ///< largest recycled class

 private:
  struct FreeNode {
    FreeNode* next;
  };

  /// Size classes: multiples of 16 bytes up to kMaxSmall. classOf(0..16)=0.
  [[nodiscard]] static constexpr std::size_t classOf(std::size_t bytes) noexcept {
    return (bytes + kChunkAlign - 1) / kChunkAlign - (bytes == 0 ? 0 : 1);
  }
  static constexpr std::size_t kClasses = kMaxSmall / kChunkAlign;

  void* carve(std::size_t cls) {
    const std::size_t chunk = (cls + 1) * kChunkAlign;
    if (bumpFree_ < chunk) {
      // The slab remainder (< one chunk of this class, always a multiple of
      // kChunkAlign) is donated to the class it exactly fills.
      if (bumpFree_ >= kChunkAlign) deallocate(bump_, bumpFree_, 1);
      bump_ = static_cast<std::byte*>(::operator new(kSlabBytes, std::align_val_t(kChunkAlign)));
      slabs_.push_back(bump_);
      bumpFree_ = kSlabBytes;
    }
    void* p = bump_;
    bump_ += chunk;
    bumpFree_ -= chunk;
    return p;
  }

  FreeNode* free_[kClasses] = {};
  std::byte* bump_ = nullptr;
  std::size_t bumpFree_ = 0;
  std::vector<void*> slabs_;
};

/// Standard-allocator shim over an Arena, for node-based containers on hot
/// paths (the MSHR map) and allocate_shared'd message state. Copies share the
/// same Arena; the Arena must outlive every container/object using it.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  /// Node-based containers may not swap/propagate their allocator; every
  /// ArenaAllocator in one container must point at the same Arena, which the
  /// owning component guarantees by construction.
  using propagate_on_container_move_assignment = std::false_type;
  using is_always_equal = std::false_type;

  explicit ArenaAllocator(Arena& a) noexcept : arena_(&a) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& o) noexcept : arena_(o.arena()) {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    arena_->deallocate(p, n * sizeof(T), alignof(T));
  }

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <typename U>
  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator<U>& b) noexcept {
    return a.arena_ == b.arena();
  }

 private:
  Arena* arena_;
};

/// Move-only owner of one T carved from an Arena: a unique_ptr whose deleter
/// returns the chunk to the arena's free list. Two pointers wide, so an event
/// closure can carry a 96-byte Message by handle and still fit its 64-byte
/// record. The Arena must outlive the box.
template <typename T>
class ArenaBox {
 public:
  template <typename... Args>
  explicit ArenaBox(Arena& a, Args&&... args) : arena_(&a) {
    void* p = a.allocate(sizeof(T), alignof(T));
    try {
      p_ = ::new (p) T(std::forward<Args>(args)...);
    } catch (...) {
      a.deallocate(p, sizeof(T), alignof(T));
      throw;
    }
  }

  ArenaBox(ArenaBox&& o) noexcept : arena_(o.arena_), p_(std::exchange(o.p_, nullptr)) {}
  ArenaBox& operator=(ArenaBox&& o) noexcept {
    if (this != &o) {
      reset();
      arena_ = o.arena_;
      p_ = std::exchange(o.p_, nullptr);
    }
    return *this;
  }
  ArenaBox(const ArenaBox&) = delete;
  ArenaBox& operator=(const ArenaBox&) = delete;

  ~ArenaBox() { reset(); }

  [[nodiscard]] T& operator*() const noexcept { return *p_; }
  [[nodiscard]] T* operator->() const noexcept { return p_; }

 private:
  void reset() noexcept {
    if (p_ != nullptr) {
      p_->~T();
      arena_->deallocate(p_, sizeof(T), alignof(T));
      p_ = nullptr;
    }
  }

  Arena* arena_ = nullptr;
  T* p_ = nullptr;
};

}  // namespace dresar

// A zero-filled block of memory from one anonymous private mapping whose base
// sits on a 2 MiB boundary and is advised for transparent huge pages. Pages
// stay untouched zero pages until first written, so an untouched region costs
// no resident memory. Large tag stores live here: a 2 MiB-aligned mapping can
// be backed by huge pages, so random probes over it walk far fewer page-table
// entries, and a fresh mapping is never memset.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <stdexcept>
#include <utility>

namespace dresar {

class ZeroedRegion {
 public:
  static constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

  ZeroedRegion() = default;

  /// Map `bytes` zero bytes (rounded up to whole 2 MiB pages); throws
  /// std::bad_alloc when the mapping fails. The huge-page advice is a hint
  /// only: where the kernel refuses it the region is still zeroed memory.
  explicit ZeroedRegion(std::size_t bytes) {
    if (bytes == 0) return;
    const std::size_t len = (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
    // Over-map by one huge page, then trim both ends so the base is aligned.
    void* raw = ::mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    const auto start = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t base = (start + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
    if (base > start) ::munmap(raw, base - start);
    ::munmap(reinterpret_cast<void*>(base + len), start + kHugePageBytes - base);
    base_ = reinterpret_cast<std::byte*>(base);
    bytes_ = len;
    ::madvise(base_, bytes_, MADV_HUGEPAGE);
  }

  ZeroedRegion(ZeroedRegion&& other) noexcept
      : base_(std::exchange(other.base_, nullptr)), bytes_(std::exchange(other.bytes_, 0)) {}
  ZeroedRegion& operator=(ZeroedRegion&& other) noexcept {
    if (this != &other) {
      release();
      base_ = std::exchange(other.base_, nullptr);
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }
  ZeroedRegion(const ZeroedRegion&) = delete;
  ZeroedRegion& operator=(const ZeroedRegion&) = delete;
  ~ZeroedRegion() { release(); }

  [[nodiscard]] std::byte* data() const { return base_; }
  /// Mapped bytes: the requested size rounded up to whole 2 MiB pages.
  [[nodiscard]] std::size_t size() const { return bytes_; }

  /// The first `n` objects of type T, viewed in place; std::out_of_range
  /// when they do not fit. T must be an implicit-lifetime type whose
  /// all-zero bytes are a valid value.
  template <class T>
  [[nodiscard]] std::span<T> first(std::size_t n) const {
    if (n > bytes_ / sizeof(T)) throw std::out_of_range("ZeroedRegion: view past the end");
    return {reinterpret_cast<T*>(base_), n};
  }

 private:
  void release() {
    if (base_ != nullptr) ::munmap(base_, bytes_);
    base_ = nullptr;
    bytes_ = 0;
  }

  std::byte* base_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace dresar

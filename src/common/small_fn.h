// Move-only callable wrapper with inline-only storage — the record type of
// EventQueue::Handler. std::function's inline buffer (16 bytes in libstdc++)
// is too small for the simulator's event closures, so every scheduled event
// used to heap-allocate. SmallFn has no heap path at all: a callable must be
// nothrow-move-constructible and fit the buffer, or the program does not
// compile. The ops pointer sits first, so SmallFn<56, 8> is one 64-byte
// record whose first word says how to call, move and destroy the rest.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dresar {

template <std::size_t Capacity, std::size_t Align = alignof(std::max_align_t)>
class SmallFn {
 public:
  /// True when callable type F is storable (fits the buffer, moves noexcept).
  template <typename F>
  static constexpr bool fits = sizeof(F) <= Capacity && alignof(F) <= Align &&
                               std::is_nothrow_move_constructible_v<F>;

  SmallFn() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  SmallFn(F&& f) noexcept(std::is_nothrow_constructible_v<D, F&&>) {  // NOLINT
    static_assert(fits<D>, "SmallFn: callable too large for the inline buffer");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &opsFor<D>;
  }

  SmallFn(SmallFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, o.buf_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the callable into `dst` from `src`, destroying `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename F>
  static F* ptr(void* p) noexcept {
    return std::launder(reinterpret_cast<F*>(p));
  }

  template <typename F>
  static constexpr Ops opsFor{
      [](void* p) { (*ptr<F>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) F(std::move(*ptr<F>(src)));
        ptr<F>(src)->~F();
      },
      [](void* p) noexcept { ptr<F>(p)->~F(); },
  };

  const Ops* ops_ = nullptr;
  alignas(Align) std::byte buf_[Capacity];
};

}  // namespace dresar

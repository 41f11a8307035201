// Fixed-size zero-initialized flat buffer for implicit-lifetime types.
//
// The learner's d-sized slot maps (d = N × M, up to ~10⁶) live here. The
// buffer comes from calloc, and large callocs are served by fresh
// anonymous pages that the allocator need not clear: those pages are
// zero-fill-on-demand, so constructing a multi-megabyte buffer writes no
// element, physical pages commit only when first touched, and untouched
// entries read off the kernel's shared zero page. This is what makes a
// d ~ 10⁶ map cheap to create while its resident footprint tracks only
// the entries actually learned. Move-only.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>

namespace megh {

template <typename T>
class ZeroLazyBuffer {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ZeroLazyBuffer requires an implicit-lifetime element type");

 public:
  ZeroLazyBuffer() = default;

  explicit ZeroLazyBuffer(std::size_t n) : n_(n) {
    if (n_ == 0) return;
    data_ = static_cast<T*>(std::calloc(n_, sizeof(T)));
    if (data_ == nullptr) throw std::bad_alloc();
  }

  ZeroLazyBuffer(const ZeroLazyBuffer&) = delete;
  ZeroLazyBuffer& operator=(const ZeroLazyBuffer&) = delete;

  ZeroLazyBuffer(ZeroLazyBuffer&& other) noexcept
      : data_(other.data_), n_(other.n_) {
    other.data_ = nullptr;
    other.n_ = 0;
  }

  ZeroLazyBuffer& operator=(ZeroLazyBuffer&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      data_ = other.data_;
      n_ = other.n_;
      other.data_ = nullptr;
      other.n_ = 0;
    }
    return *this;
  }

  ~ZeroLazyBuffer() { std::free(data_); }

  std::size_t size() const { return n_; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  T* data_ = nullptr;
  std::size_t n_ = 0;
};

}  // namespace megh

// Inline small-buffer storage for the linear-algebra types.
//
// MIMO dimensions in this system are at most ~4x4 per subcarrier (16
// elements), but the per-subcarrier loops run millions of times per
// signal-level experiment. Backing CVec/CMat with std::vector made every
// temporary a heap allocation; SmallBuf keeps anything up to
// kInlineCapacity elements in an inline array and only falls back to the
// heap for the rare large operands (tap-smoothing bases, 52-element
// observation vectors). Steady-state per-subcarrier math therefore performs
// zero heap allocations, including for by-value returns.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>

namespace nplus::linalg {

class SmallBuf {
 public:
  using value_type = std::complex<double>;

  // 4x4 complex matrix — the largest per-subcarrier MIMO operand.
  static constexpr std::size_t kInlineCapacity = 16;

  // Not defaulted: the raw inline union below would delete it.
  SmallBuf() {}

  explicit SmallBuf(std::size_t n) { resize(n); }

  SmallBuf(const SmallBuf& o) { assign(o.ptr_, o.size_); }

  SmallBuf(SmallBuf&& o) noexcept {
    if (o.on_heap()) {
      ptr_ = o.ptr_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.ptr_ = o.inline_;
      o.cap_ = kInlineCapacity;
      o.size_ = 0;
    } else {
      size_ = o.size_;
      std::copy(o.inline_, o.inline_ + o.size_, inline_);
      o.size_ = 0;
    }
  }

  SmallBuf& operator=(const SmallBuf& o) {
    if (this != &o) assign(o.ptr_, o.size_);
    return *this;
  }

  SmallBuf& operator=(SmallBuf&& o) noexcept {
    if (this == &o) return *this;
    if (o.on_heap()) {
      if (on_heap()) delete[] ptr_;
      ptr_ = o.ptr_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.ptr_ = o.inline_;
      o.cap_ = kInlineCapacity;
      o.size_ = 0;
    } else {
      assign(o.inline_, o.size_);
      o.size_ = 0;
    }
    return *this;
  }

  ~SmallBuf() {
    if (on_heap()) delete[] ptr_;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool on_heap() const { return ptr_ != inline_; }

  value_type* data() { return ptr_; }
  const value_type* data() const { return ptr_; }

  value_type& operator[](std::size_t i) { return ptr_[i]; }
  const value_type& operator[](std::size_t i) const { return ptr_[i]; }

  value_type* begin() { return ptr_; }
  value_type* end() { return ptr_ + size_; }
  const value_type* begin() const { return ptr_; }
  const value_type* end() const { return ptr_ + size_; }

  // Grows or shrinks to n elements, std::vector-style: existing elements are
  // preserved, growth is zero-filled. Never reallocates while n fits the
  // current capacity — the zero-allocation invariant the kernels rely on.
  void resize(std::size_t n) {
    if (n > cap_) reallocate(n);
    if (n > size_) std::fill(ptr_ + size_, ptr_ + n, value_type{0.0, 0.0});
    size_ = n;
  }

  // Replaces the contents with n copied elements (no reallocation when n
  // fits the current capacity).
  void assign(const value_type* src, std::size_t n) {
    if (n > cap_) reallocate_discard(n);
    std::copy(src, src + n, ptr_);
    size_ = n;
  }

  void fill(value_type v) { std::fill(ptr_, ptr_ + size_, v); }

 private:
  void reallocate(std::size_t n) {
    value_type* fresh = new value_type[n];
    std::copy(ptr_, ptr_ + size_, fresh);
    if (on_heap()) delete[] ptr_;
    ptr_ = fresh;
    cap_ = n;
  }

  void reallocate_discard(std::size_t n) {
    value_type* fresh = new value_type[n];
    if (on_heap()) delete[] ptr_;
    ptr_ = fresh;
    cap_ = n;
  }

  std::size_t size_ = 0;
  std::size_t cap_ = kInlineCapacity;
  // Raw inline storage: no element past size_ is ever read, so a fresh
  // buffer leaves it unwritten instead of zeroing all 16 slots.
  union {
    value_type inline_[kInlineCapacity];
  };
  value_type* ptr_ = inline_;
};

}  // namespace nplus::linalg

// Vectors whose resize() leaves new elements unwritten.
//
// A value-less std::vector::resize() value-initializes every new element,
// which for integers is a memset. The codec's code arrays and Huffman
// substreams are written in full by the kernel that fills them, so that
// memset writes megabytes per field that nothing reads.
// DefaultInitAllocator default-initializes instead: for trivial types the
// memory stays as the allocator returned it. Only use it where every
// element is written before it is read.
#pragma once

#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace pcw::util {

template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace pcw::util

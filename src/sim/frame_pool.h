// Per-thread size-class free list for the simulation's short-lived blocks.
//
// Every RPC allocates several coroutine frames (the typed wrapper, the raw
// call, the handler and its spawn shell), a promise state for the response
// and, per hop, a delivery record.  They are born and die by the million
// with a handful of distinct sizes, so each freed block goes onto a free
// list for its size class and the next request of that class pops it back.
// In steady state the simulation then makes no global allocation for them.
//
// Classes are kGranule (64 B) wide up to kMaxBytes (4 KB); larger requests
// go straight to operator new.  A block keeps its class for life and is
// never returned to the system until its thread exits.  The lists are
// per-thread, so parallel sweep workers never share one; a block freed on
// another thread than it was allocated on simply joins that thread's list.
//
// Under AddressSanitizer a block on a free list is poisoned, so a
// use-after-free of a recycled frame or record still reports.
#pragma once

#include <cstddef>
#include <new>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FAASTCC_FRAME_POOL_ASAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define FAASTCC_FRAME_POOL_ASAN 1
#endif

#ifdef FAASTCC_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace faastcc::sim {

class FramePool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxBytes = 4096;

  static void* allocate(std::size_t n) {
    if (n > kMaxBytes || n == 0) return ::operator new(n);
    const std::size_t c = class_of(n);
    Lists& l = lists();
    Block* b = l.head[c];
    if (b == nullptr) return ::operator new(c * kGranule);
    unpoison(b, c);
    l.head[c] = b->next;
    return b;
  }

  // `n` must be the size passed to allocate().
  static void deallocate(void* p, std::size_t n) noexcept {
    if (n > kMaxBytes || n == 0) {
      ::operator delete(p);
      return;
    }
    const std::size_t c = class_of(n);
    Lists& l = lists();
    auto* b = static_cast<Block*>(p);
    b->next = l.head[c];
    l.head[c] = b;
    poison(b, c);
  }

 private:
  static constexpr std::size_t kClasses = kMaxBytes / kGranule;

  struct Block {
    Block* next;
  };

  // Class c (1..kClasses) holds blocks of c * kGranule bytes.
  static std::size_t class_of(std::size_t n) {
    return (n + kGranule - 1) / kGranule;
  }

  struct Lists {
    Block* head[kClasses + 1] = {};
    Lists() = default;
    Lists(const Lists&) = delete;
    Lists& operator=(const Lists&) = delete;
    // Thread exit hands every cached block back, so leak checking sees
    // only blocks that are really still live.
    ~Lists() {
      for (std::size_t c = 1; c <= kClasses; ++c) {
        while (Block* b = head[c]) {
          unpoison(b, c);
          head[c] = b->next;
          ::operator delete(b);
        }
      }
    }
  };

  static Lists& lists() {
    static thread_local Lists l;
    return l;
  }

#ifdef FAASTCC_FRAME_POOL_ASAN
  static void poison(Block* b, std::size_t c) {
    ASAN_POISON_MEMORY_REGION(b, c * kGranule);
  }
  static void unpoison(Block* b, std::size_t c) {
    ASAN_UNPOISON_MEMORY_REGION(b, c * kGranule);
  }
#else
  static void poison(Block*, std::size_t) {}
  static void unpoison(Block*, std::size_t) {}
#endif
};

// Standard allocator over FramePool, for allocate_shared.
template <typename T>
struct FramePoolAllocator {
  using value_type = T;

  FramePoolAllocator() = default;
  template <typename U>
  FramePoolAllocator(const FramePoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(FramePool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const FramePoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace faastcc::sim

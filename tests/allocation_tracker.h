#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

/// \file allocation_tracker.h
/// \brief Replaces the global operator new of the test binary that includes
/// it with one that records the largest single allocation, so a decoder
/// test can bound what a read or an open allocates by the bytes present.
/// The replacement covers the whole binary, library code included. Include
/// it in exactly one source file of a binary: replacement allocation
/// functions cannot be inline.

namespace aims::mutation {

inline std::atomic<size_t> g_largest_allocation{0};

/// Largest single allocation since the last ResetLargestAllocation().
inline size_t LargestAllocation() { return g_largest_allocation.load(); }
inline void ResetLargestAllocation() { g_largest_allocation.store(0); }

inline void* TrackedAllocate(size_t n) {
  size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_allocation.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace aims::mutation

void* operator new(size_t n) { return aims::mutation::TrackedAllocate(n); }
void* operator new[](size_t n) { return aims::mutation::TrackedAllocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

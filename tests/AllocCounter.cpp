//===- tests/AllocCounter.cpp - Counting operator new ---------------------===//

#include "AllocCounter.h"

#include <cstdlib>
#include <new>

std::atomic<bool> awam::testalloc::Counting{false};
std::atomic<uint64_t> awam::testalloc::NumAllocs{0};

#ifndef AWAM_TEST_SANITIZED
// These replace the global operators, so free() does get what malloc()
// returned; GCC cannot see that.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *operator new(std::size_t N) {
  if (awam::testalloc::Counting.load(std::memory_order_relaxed))
    awam::testalloc::NumAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
#pragma GCC diagnostic pop
#endif

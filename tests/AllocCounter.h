//===- tests/AllocCounter.h - Counting operator new for test gates --------===//
//
// A test executable that links AllocCounter.cpp replaces the global
// operator new with one that counts heap allocations while Counting is on,
// for gates that bound how often a phase allocates. Sanitizer builds keep
// their own allocator, so there nothing is counted and such gates skip
// (testenv::kSanitized).
//
//===----------------------------------------------------------------------===//

#ifndef AWAM_TESTS_ALLOCCOUNTER_H
#define AWAM_TESTS_ALLOCCOUNTER_H

#include "SanitizerBuild.h"

#include <atomic>
#include <cstdint>

namespace awam::testalloc {

/// Heap allocations made through operator new while Counting is on.
extern std::atomic<bool> Counting;
extern std::atomic<uint64_t> NumAllocs;

} // namespace awam::testalloc

#endif // AWAM_TESTS_ALLOCCOUNTER_H

//===- tests/SanitizerBuild.h - Whether this build runs under a sanitizer -===//
//
// ASan and TSan slow each test by their own factor and bring their own
// allocator, so tests assert timing and allocation bounds only when
// kSanitized is false.
//
//===----------------------------------------------------------------------===//

#ifndef AWAM_TESTS_SANITIZERBUILD_H
#define AWAM_TESTS_SANITIZERBUILD_H

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AWAM_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AWAM_TEST_SANITIZED 1
#endif
#endif

namespace awam::testenv {

#ifdef AWAM_TEST_SANITIZED
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif

} // namespace awam::testenv

#endif // AWAM_TESTS_SANITIZERBUILD_H

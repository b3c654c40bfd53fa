// Whether this test binary runs under a sanitizer that replaces the heap.
// Such allocators abort on a request no address space can satisfy, where
// the system allocator returns null, and keep shadow memory that counts
// toward the process's resident set.
#pragma once

namespace swve::testing_support {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitizerAllocator = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
inline constexpr bool kSanitizerAllocator = true;
#else
inline constexpr bool kSanitizerAllocator = false;
#endif
#else
inline constexpr bool kSanitizerAllocator = false;
#endif

}  // namespace swve::testing_support

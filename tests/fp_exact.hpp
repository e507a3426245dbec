#pragma once

// Pinned CRCs of encoded or decoded bytes are FP-exact claims, and sanitizer
// instrumentation legitimately changes scalar FP contraction — so only
// uninstrumented builds check the exact bytes (DCSR_FP_EXACT_BUILD = 1);
// sanitized builds still check structure and reconstruction fidelity.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DCSR_FP_EXACT_BUILD 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define DCSR_FP_EXACT_BUILD 0
#else
#define DCSR_FP_EXACT_BUILD 1
#endif
#else
#define DCSR_FP_EXACT_BUILD 1
#endif

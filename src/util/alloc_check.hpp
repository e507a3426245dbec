#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#include "util/checked.hpp"

namespace dcsr {

/// Per-thread allocator traffic, maintained by the DCSR_ALLOC_CHECK
/// interposer. Counters only ever count the calling thread's own operator
/// new/delete calls (a cross-thread delete lands on the deleting thread),
/// which is exactly the view the steady-state pins need: the playback loop
/// runs on one thread, so its per-frame delta must be zero once warm.
struct AllocStats {
  std::uint64_t allocs = 0;      // operator new calls (all variants)
  std::uint64_t frees = 0;       // operator delete calls (all variants)
  std::uint64_t bytes = 0;       // cumulative bytes requested from new
  std::uint64_t sanctioned = 0;  // guarded allocs inside an AllocAllowScope
};

/// Thrown by the interposer when a heap allocation happens inside an active
/// HotPathGuard region (and outside any AllocAllowScope). Derives from
/// std::bad_alloc — the only exception type operator new may legally throw —
/// and owns no heap of its own: the message lives in a fixed inline buffer,
/// so constructing and throwing it never re-enters the allocator.
class HotPathAllocError : public std::bad_alloc {
 public:
  HotPathAllocError(const char* site, std::size_t bytes, int depth) noexcept;

  const char* what() const noexcept override { return msg_; }
  /// Innermost guard site active when the allocation was attempted.
  const char* site() const noexcept { return site_; }
  /// Size of the offending allocation request.
  std::size_t bytes() const noexcept { return bytes_; }
  /// Guard nesting depth at the violation (1 = a single active guard).
  int depth() const noexcept { return depth_; }

 private:
  char msg_[256];
  const char* site_ = nullptr;
  std::size_t bytes_ = 0;
  int depth_ = 0;
};

#if DCSR_ALLOC_CHECK

/// RAII no-allocation region: while any HotPathGuard is alive on a thread,
/// every heap allocation on that thread throws HotPathAllocError naming the
/// innermost guard's site. Guards nest (fixed depth, see kMaxDepth); `site`
/// must outlive the guard (string literals in practice). Exception-safe: the
/// destructor pops the region even when the scope unwinds through a throw.
class HotPathGuard {
 public:
  static constexpr int kMaxDepth = 16;

  explicit HotPathGuard(const char* site) noexcept;
  ~HotPathGuard();
  HotPathGuard(const HotPathGuard&) = delete;
  HotPathGuard& operator=(const HotPathGuard&) = delete;
};

/// RAII suspension of guard enforcement for a *sanctioned* allocation — the
/// warm-up paths that legitimately touch the allocator inside a guarded
/// region (a workspace miss, the claim registry growing, a cache admitting a
/// model). Counters still count the raw allocation and additionally bump
/// `sanctioned`, so sanctioned traffic stays visible: the steady-state pins
/// assert the raw per-frame delta is zero, allow-scopes or not.
class AllocAllowScope {
 public:
  AllocAllowScope() noexcept;
  ~AllocAllowScope();
  AllocAllowScope(const AllocAllowScope&) = delete;
  AllocAllowScope& operator=(const AllocAllowScope&) = delete;
};

/// This thread's allocator counters (monotonic; diff two snapshots to meter
/// a region).
AllocStats thread_alloc_stats() noexcept;

/// Innermost active guard site on this thread, or nullptr when unguarded.
/// The thread pool uses it to re-install the caller's guard on its workers, so
/// a guarded region stays guarded across its fan-out.
const char* active_hot_path() noexcept;

/// Current guard nesting depth on this thread.
int hot_path_depth() noexcept;

/// Whether guard enforcement is live. Resolved once from the environment on
/// first use: DCSR_ALLOC_CHECK=0/off/false disables throwing (counters keep
/// counting), anything else — including unset — leaves it on in a build that
/// compiled the interposer in.
bool alloc_check_enabled() noexcept;

/// Forces enforcement on or off, overriding the environment. Test hook.
void set_alloc_check_enabled(bool enabled) noexcept;

#else  // !DCSR_ALLOC_CHECK — inert inline stubs; no interposer is linked.

class HotPathGuard {
 public:
  static constexpr int kMaxDepth = 16;
  explicit HotPathGuard(const char*) noexcept {}
};

class AllocAllowScope {
 public:
  AllocAllowScope() noexcept {}
};

inline AllocStats thread_alloc_stats() noexcept { return {}; }
inline const char* active_hot_path() noexcept { return nullptr; }
inline int hot_path_depth() noexcept { return 0; }
inline bool alloc_check_enabled() noexcept { return false; }
inline void set_alloc_check_enabled(bool) noexcept {}

#endif  // DCSR_ALLOC_CHECK

}  // namespace dcsr

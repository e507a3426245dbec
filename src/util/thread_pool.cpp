#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/alloc_check.hpp"
#include "util/checked.hpp"
#include "util/env.hpp"

namespace dcsr {

namespace {

// Set while a thread (worker or caller) is executing a region's chunk.
// Nested regions check it and run inline instead of re-entering
// the pool: the outer loop already owns all the parallelism there is.
thread_local bool tl_in_parallel_region = false;

void validate_parallel_args(std::int64_t begin, std::int64_t end,
                            std::int64_t grain) {
  // Error paths may run under a HotPathGuard (bad arguments from a guarded
  // kernel); sanction the message construction so the real diagnostic is not
  // masked by HotPathAllocError.
  if (grain < 1) {
    AllocAllowScope allow;
    throw std::invalid_argument("parallel_for_writes: grain must be >= 1, got " +
                                std::to_string(grain));
  }
  if (end < begin) {
    AllocAllowScope allow;
    throw std::invalid_argument("parallel_for_writes: end < begin (begin=" +
                                std::to_string(begin) +
                                ", end=" + std::to_string(end) + ")");
  }
}

// Same floor-division policy everywhere: at most `threads` chunks, each of
// at least `grain` indices. parallel_for_writes computes the decomposition
// with this to claim exactly the chunks Impl::run will run.
std::int64_t chunk_count(int threads, std::int64_t range, std::int64_t grain) {
  return std::max<std::int64_t>(
      1, std::min<std::int64_t>(threads, range / grain));
}

// ---------------------------------------------------------------------------
// Write-claim checker. One global registry of the byte ranges every chunk of
// every in-flight checked region has declared it will write. Claims are
// registered for a whole region at once, *before* any chunk runs, so an
// overlap is detected deterministically — unlike a data-race, which only
// manifests if the scheduler happens to interleave the two writes. Claims
// from different regions coexist in the registry only when the regions are
// genuinely concurrent (a region blocks its caller), which is exactly
// the situation in which overlap would be a race.
// ---------------------------------------------------------------------------

struct ClaimRecord {
  const char* site;
  std::int64_t chunk;
  const char* lo;
  const char* hi;  // half-open byte range
  std::uint64_t region;
};

std::mutex g_claims_mutex;
std::vector<ClaimRecord> g_claims;
std::uint64_t g_next_region_id = 1;  // guarded by g_claims_mutex

// Per-thread scratch for assembling a region's claims. Reused across regions
// (clear() keeps the capacity), so once a thread has claimed a region of a
// given fan-out once, later regions allocate nothing — the steady-state
// zero-alloc pins hold with the claim checker live.
thread_local std::vector<ClaimRecord> tl_claim_scratch;

[[noreturn]] void throw_overlap(const ClaimRecord& a, const ClaimRecord& b) {
  // A genuine contract violation: allow the diagnostic to allocate even
  // under a guard, so the overlap report wins over HotPathAllocError.
  AllocAllowScope allow;
  std::ostringstream msg;
  msg << "parallel_for_writes: overlapping write claims — " << a.site
      << " (chunk " << a.chunk << ", bytes [" << static_cast<const void*>(a.lo)
      << ", " << static_cast<const void*>(a.hi) << ")) overlaps " << b.site
      << " (chunk " << b.chunk << ", bytes [" << static_cast<const void*>(b.lo)
      << ", " << static_cast<const void*>(b.hi)
      << ")); concurrent chunks must write disjoint outputs";
  throw ParallelOverlapError(msg.str());
}

// Registers a region's claims on construction (throwing ParallelOverlapError
// before inserting anything if any pair — within the region or against an
// in-flight region — overlaps) and withdraws them on destruction. Copies the
// records into the global registry; the caller's scratch stays reusable.
class RegionClaims {
 public:
  explicit RegionClaims(const std::vector<ClaimRecord>& records) {
    std::lock_guard lk(g_claims_mutex);
    for (std::size_t i = 0; i < records.size(); ++i) {
      for (const auto& other : g_claims)
        if (records[i].lo < other.hi && other.lo < records[i].hi)
          throw_overlap(records[i], other);
      for (std::size_t j = 0; j < i; ++j)
        if (records[i].lo < records[j].hi && records[j].lo < records[i].hi)
          throw_overlap(records[i], records[j]);
    }
    region_ = g_next_region_id++;
    // The registry's capacity stabilises after warm-up; growth is a
    // sanctioned allocation, the steady-state push_back is free.
    AllocAllowScope allow;
    for (auto r : records) {
      r.region = region_;
      g_claims.push_back(r);
    }
  }

  ~RegionClaims() {
    std::lock_guard lk(g_claims_mutex);
    std::erase_if(g_claims,
                  [this](const ClaimRecord& r) { return r.region == region_; });
  }

  RegionClaims(const RegionClaims&) = delete;
  RegionClaims& operator=(const RegionClaims&) = delete;

 private:
  std::uint64_t region_ = 0;
};

// -1 = not yet resolved from the environment, 0 = off, 1 = on.
std::atomic<int> g_check_state{-1};

#if DCSR_CLAIM_CONTAIN

// ---------------------------------------------------------------------------
// Claim-containment auditor (DCSR_CLAIM_CONTAIN). The overlap checker above
// proves declared claims are pairwise disjoint; this replay proves each
// chunk's *actual writes* stay inside its own claim. The region's chunks run
// serially in index order; every claimed span is snapshotted first, and
// after chunk c runs each sibling span is byte-compared against its
// snapshot — any mutation is an under-claimed write that would race under
// real scheduling. Snapshotting "all memory" is impossible, so detection is
// scoped to writes landing in sibling claims: exactly the racing class.
//
// The replay uses a canonical fixed decomposition (kClaimAuditChunks-way,
// clamped by grain) rather than the pool's, so detection is deterministic
// and identical at every DCSR_THREADS — the same property the overlap
// checker has. Bit-identical results across decompositions are already
// contractual (a 4-way replay is the DCSR_THREADS=4 program, serialized),
// so replay observes the kernel, never changes its output.
// ---------------------------------------------------------------------------

constexpr int kClaimAuditChunks = 4;

// Snapshot scratch, reused across regions (capacity kept) so the
// steady-state zero-alloc pins hold with the auditor live.
thread_local std::vector<char> tl_contain_snapshot;
thread_local std::vector<std::size_t> tl_contain_offsets;

[[noreturn]] void throw_containment(const char* site, std::int64_t chunk,
                                    const ClaimRecord& victim,
                                    std::size_t byte_offset) {
  // A genuine contract violation: the diagnostic may allocate even under a
  // hot-path guard, same policy as throw_overlap.
  AllocAllowScope allow;
  std::ostringstream msg;
  msg << "parallel_for_writes: claim containment violation — " << site
      << " (chunk " << chunk << ") wrote outside its claimed span: byte "
      << byte_offset << " of the span claimed by " << victim.site << " (chunk "
      << victim.chunk << ", bytes [" << static_cast<const void*>(victim.lo)
      << ", " << static_cast<const void*>(victim.hi)
      << ")) was mutated; a chunk must write only the bytes it claims";
  throw ClaimContainmentError(msg.str(), site, chunk, victim.chunk,
                              byte_offset);
}

// Serial isolation replay over the already-registered claims. `records`
// holds one claim per non-empty-claiming chunk of the canonical
// decomposition; chunks themselves are recomputed with the same floor
// division Impl::run uses.
void replay_contained(const std::vector<ClaimRecord>& records,
                      std::int64_t begin, std::int64_t range,
                      std::int64_t nchunks,
                      FunctionRef<void(std::int64_t, std::int64_t)> fn,
                      const char* site) {
  std::vector<char>& snap = tl_contain_snapshot;
  std::vector<std::size_t>& offsets = tl_contain_offsets;
  std::size_t total = 0;
  for (const auto& r : records)
    total += static_cast<std::size_t>(r.hi - r.lo);
  {
    AllocAllowScope allow;  // scratch growth only; capacity is kept
    if (snap.size() < total) snap.resize(total);
    offsets.clear();
    offsets.reserve(records.size());
  }
  std::size_t off = 0;
  for (const auto& r : records) {
    const std::size_t n = static_cast<std::size_t>(r.hi - r.lo);
    offsets.push_back(off);
    std::memcpy(snap.data() + off, r.lo, n);
    off += n;
  }

  for (std::int64_t c = 0; c < nchunks; ++c) {
    const std::int64_t lo = begin + range * c / nchunks;
    const std::int64_t hi = begin + range * (c + 1) / nchunks;
    if (hi <= lo) continue;
    const bool was = tl_in_parallel_region;
    tl_in_parallel_region = true;
    try {
      fn(lo, hi);
    } catch (...) {
      tl_in_parallel_region = was;
      throw;
    }
    tl_in_parallel_region = was;
    for (std::size_t j = 0; j < records.size(); ++j) {
      const ClaimRecord& r = records[j];
      const std::size_t n = static_cast<std::size_t>(r.hi - r.lo);
      if (r.chunk == c) {
        // The chunk legitimately wrote its own claim: refresh the snapshot
        // so later chunks are compared against the current contents.
        std::memcpy(snap.data() + offsets[j], r.lo, n);
        continue;
      }
      if (std::memcmp(snap.data() + offsets[j], r.lo, n) != 0) {
        std::size_t b = 0;
        while (snap[offsets[j] + b] == r.lo[b]) ++b;
        throw_containment(site, c, r, b);
      }
    }
  }
}

#endif  // DCSR_CLAIM_CONTAIN

// ---------------------------------------------------------------------------
// One fan-out in flight. Lives on the caller's stack for the duration of the
// region (Impl::run blocks until remaining == 0, so worker references to
// it can never dangle). Chunks reach it through a plain function pointer +
// void* pair — the queue stores no owning callables, so dispatch performs no
// heap allocation.
// ---------------------------------------------------------------------------

struct RegionCtx {
  RegionCtx(FunctionRef<void(std::int64_t, std::int64_t)> f, std::int64_t b,
            std::int64_t r, std::int64_t n, const char* site) noexcept
      : fn(f), begin(b), range(r), nchunks(n), guard_site(site), remaining(n) {}

  FunctionRef<void(std::int64_t, std::int64_t)> fn;
  std::int64_t begin;
  std::int64_t range;
  std::int64_t nchunks;
  // Innermost hot-path guard active on the *calling* thread, re-installed
  // around each chunk so the allocation audit follows the work onto workers.
  const char* guard_site;
  std::mutex mutex;
  std::condition_variable cv;
  std::int64_t remaining;
  std::exception_ptr error;
};

void run_region_chunk(void* ctx_raw, std::int64_t c) {
  auto& ctx = *static_cast<RegionCtx*>(ctx_raw);
  const std::int64_t lo = ctx.begin + ctx.range * c / ctx.nchunks;
  const std::int64_t hi = ctx.begin + ctx.range * (c + 1) / ctx.nchunks;
  const bool was = tl_in_parallel_region;
  tl_in_parallel_region = true;
  try {
    if (hi > lo) {
      // Propagate the caller's guard onto this thread. The caller itself
      // (running chunk 0, its guard already active) skips the re-install.
      if (ctx.guard_site != nullptr && active_hot_path() == nullptr) {
        HotPathGuard guard(ctx.guard_site);
        ctx.fn(lo, hi);
      } else {
        ctx.fn(lo, hi);
      }
    }
  } catch (...) {
    std::lock_guard lk(ctx.mutex);
    if (!ctx.error) ctx.error = std::current_exception();
  }
  tl_in_parallel_region = was;
  std::lock_guard lk(ctx.mutex);
  if (--ctx.remaining == 0) ctx.cv.notify_all();
}

}  // namespace

bool parallel_check_enabled() noexcept {
  const int s = g_check_state.load(std::memory_order_relaxed);
  if (s >= 0) return s == 1;
#ifdef DCSR_CHECKED
  bool on = true;  // checked builds validate claims by default
#else
  bool on = false;
#endif
  if (const auto v = env_bool("DCSR_CHECK_PARALLEL")) on = *v;
  g_check_state.store(on ? 1 : 0, std::memory_order_relaxed);
  return on;
}

void set_parallel_check_enabled(bool enabled) noexcept {
  g_check_state.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

#if DCSR_CLAIM_CONTAIN

namespace {
// -1 = not yet resolved from the environment, 0 = off, 1 = on.
std::atomic<int> g_contain_state{-1};
}  // namespace

bool claim_contain_enabled() noexcept {
  const int s = g_contain_state.load(std::memory_order_relaxed);
  if (s >= 0) return s == 1;
  bool on = true;  // compiled in (checked build): audit by default
  if (const auto v = env_bool("DCSR_CLAIM_CONTAIN")) on = *v;
  g_contain_state.store(on ? 1 : 0, std::memory_order_relaxed);
  return on;
}

void set_claim_contain_enabled(bool enabled) noexcept {
  g_contain_state.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

#else  // !DCSR_CLAIM_CONTAIN

bool claim_contain_enabled() noexcept { return false; }
void set_claim_contain_enabled(bool) noexcept {}

#endif  // DCSR_CLAIM_CONTAIN

struct ThreadPool::Impl {
  // Pending chunks as plain PODs in a ring buffer: pushing a task moves no
  // std::function and allocates no queue node, so a warm region's dispatch
  // is invisible to the allocation auditor. The ring is pre-sized at pool
  // construction and grows (sanctioned) only if more chunks are ever queued
  // than it has ever held.
  struct Task {
    void (*run)(void*, std::int64_t) = nullptr;
    void* ctx = nullptr;
    std::int64_t chunk = 0;
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Task> ring;
  std::size_t head = 0;   // next task to pop
  std::size_t count = 0;  // queued tasks
  bool stop = false;
  std::vector<std::thread> workers;

  void push_locked(const Task& t) {
    if (count == ring.size()) {
      AllocAllowScope allow;
      std::vector<Task> bigger(ring.empty() ? 16 : ring.size() * 2);
      for (std::size_t i = 0; i < count; ++i)
        bigger[i] = ring[(head + i) % ring.size()];
      ring.swap(bigger);
      head = 0;
    }
    ring[(head + count) % ring.size()] = t;
    ++count;
  }

  bool pop_locked(Task& out) {
    if (count == 0) return false;
    out = ring[head];
    head = (head + 1) % ring.size();
    --count;
    return true;
  }

  void run(int threads, std::int64_t begin, std::int64_t end,
           std::int64_t grain,
           FunctionRef<void(std::int64_t, std::int64_t)> fn);

  void worker_loop() {
    for (;;) {
      Task task;
      {
        std::unique_lock lk(mutex);
        cv.wait(lk, [&] { return stop || count != 0; });
        if (stop && count == 0) return;
        pop_locked(task);
      }
      task.run(task.ctx, task.chunk);
    }
  }
};

ThreadPool::ThreadPool(int threads)
    : impl_(std::make_unique<Impl>()), threads_(std::max(1, threads)) {
  impl_->ring.resize(
      std::max<std::size_t>(16, 2 * static_cast<std::size_t>(threads_)));
  impl_->workers.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

// Runs a validated, non-empty region on `threads`' decomposition: chunk 0
// on the calling thread, the rest on workers (inline when nested, when one
// chunk suffices, or when there are no workers).
void ThreadPool::Impl::run(int threads, std::int64_t begin, std::int64_t end,
                           std::int64_t grain,
                           FunctionRef<void(std::int64_t, std::int64_t)> fn) {
  const std::int64_t range = end - begin;
  const std::int64_t nchunks = chunk_count(threads, range, grain);

  if (nchunks <= 1 || tl_in_parallel_region || workers.empty()) {
    const bool was = tl_in_parallel_region;
    tl_in_parallel_region = true;
    try {
      fn(begin, end);
    } catch (...) {
      tl_in_parallel_region = was;
      throw;
    }
    tl_in_parallel_region = was;
    return;
  }

  RegionCtx ctx(fn, begin, range, nchunks, active_hot_path());

  {
    std::lock_guard lk(mutex);
    for (std::int64_t c = 1; c < nchunks; ++c)
      push_locked({&run_region_chunk, &ctx, c});
  }
  cv.notify_all();
  run_region_chunk(&ctx, 0);

  // Help drain the queue while waiting: under contention (several regions in
  // flight) the caller keeps making global progress instead of idling.
  for (;;) {
    Impl::Task task;
    {
      std::lock_guard lk(mutex);
      if (!pop_locked(task)) break;
    }
    task.run(task.ctx, task.chunk);
  }

  {
    std::unique_lock lk(ctx.mutex);
    ctx.cv.wait(lk, [&] { return ctx.remaining == 0; });
  }
  if (ctx.error) std::rethrow_exception(ctx.error);
}

void ThreadPool::parallel_for_writes(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    FunctionRef<WriteSpan(std::int64_t, std::int64_t)> claim,
    FunctionRef<void(std::int64_t, std::int64_t)> fn, const char* site) {
  validate_parallel_args(begin, end, grain);
  if (begin == end) return;
  // Nested regions run inline inside one enclosing chunk: they introduce no
  // concurrency, and their writes legitimately fall inside that chunk's own
  // claim, so claiming here would only produce false overlaps.
  if (!parallel_check_enabled() || tl_in_parallel_region) {
    impl_->run(threads_, begin, end, grain, fn);
    return;
  }

  const std::int64_t range = end - begin;
#if DCSR_CLAIM_CONTAIN
  // Under the containment auditor, claims (and the replay) use the canonical
  // kClaimAuditChunks-way decomposition instead of this pool's, so detection
  // is identical at every DCSR_THREADS. Results are unchanged: bit-identical
  // output across decompositions is already the determinism contract.
  const bool contain = claim_contain_enabled();
  const std::int64_t nchunks = chunk_count(
      contain ? kClaimAuditChunks : threads_, range, grain);
#else
  const std::int64_t nchunks = chunk_count(threads_, range, grain);
#endif
  std::vector<ClaimRecord>& records = tl_claim_scratch;
  records.clear();
  {
    AllocAllowScope allow;  // scratch growth only; clear() keeps capacity
    records.reserve(static_cast<std::size_t>(nchunks));
  }
  for (std::int64_t c = 0; c < nchunks; ++c) {
    const std::int64_t lo = begin + range * c / nchunks;
    const std::int64_t hi = begin + range * (c + 1) / nchunks;
    if (hi <= lo) continue;
    const WriteSpan span = claim(lo, hi);
    if (span.lo == span.hi) continue;  // empty claim: nothing to track
    if (span.lo > span.hi) {
      AllocAllowScope allow;
      throw std::invalid_argument(
          std::string("parallel_for_writes: inverted claim from ") + site);
    }
    records.push_back({site, c, static_cast<const char*>(span.lo),
                       static_cast<const char*>(span.hi), 0});
  }
  RegionClaims guard(records);
#if DCSR_CLAIM_CONTAIN
  if (contain) {
    replay_contained(records, begin, range, nchunks, fn, site);
    return;
  }
#endif
  impl_->run(threads_, begin, end, grain, fn);
}

struct PipelineThread::Impl {
  std::mutex mutex;
  std::condition_variable cv;
  // Non-owning view of the caller's task; engaged exactly while one is
  // pending or running. FunctionRef has no default state, so the empty
  // optional is the "idle" encoding.
  std::optional<FunctionRef<void()>> task;
  bool busy = false;
  bool stop = false;
  std::exception_ptr error;
  std::thread worker;

  void loop() {
    for (;;) {
      // Copied out of `task` under the lock: FunctionRef is non-owning, so
      // the local must never bind a temporary callable of its own (the
      // referent would die at the end of the declaration).
      std::optional<FunctionRef<void()>> fn;
      {
        std::unique_lock lk(mutex);
        cv.wait(lk, [&] { return stop || task.has_value(); });
        if (!task.has_value()) return;  // stop, nothing pending
        fn = task;
      }
      std::exception_ptr err;
      try {
        if (fn.has_value()) (*fn)();
      } catch (...) {
        err = std::current_exception();
      }
      {
        std::lock_guard lk(mutex);
        task.reset();
        busy = false;
        error = err;
      }
      cv.notify_all();
    }
  }
};

PipelineThread::PipelineThread() : impl_(std::make_unique<Impl>()) {
  impl_->worker = std::thread([impl = impl_.get()] { impl->loop(); });
}

PipelineThread::~PipelineThread() {
  {
    std::lock_guard lk(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  // The loop finishes an in-flight task before honouring stop; its
  // exception (if any) is discarded — the destructor may already be
  // running during unwinding.
  impl_->worker.join();
}

void PipelineThread::run(FunctionRef<void()> fn) {
  {
    std::lock_guard lk(impl_->mutex);
    if (impl_->busy)
      throw std::logic_error(
          "PipelineThread::run: a task is already in flight (call wait first)");
    impl_->task.emplace(fn);
    impl_->busy = true;
    impl_->error = nullptr;
  }
  impl_->cv.notify_all();
}

void PipelineThread::wait() {
  std::unique_lock lk(impl_->mutex);
  impl_->cv.wait(lk, [&] { return !impl_->busy; });
  if (impl_->error) {
    std::exception_ptr err = impl_->error;
    impl_->error = nullptr;
    std::rethrow_exception(err);
  }
}

namespace {

std::mutex g_default_pool_mutex;
std::unique_ptr<ThreadPool> g_default_pool;

}  // namespace

ThreadPool& default_pool() {
  std::lock_guard lk(g_default_pool_mutex);
  if (!g_default_pool) {
    // One-time lazy construction; the first parallel region may well sit
    // inside a hot-path guard, and building the pool (impl, task ring,
    // worker threads) is sanctioned warm-up.
    AllocAllowScope allow;
    g_default_pool = std::make_unique<ThreadPool>(thread_count_from_env());
  }
  return *g_default_pool;
}

void set_default_pool_threads(int threads) {
  // Build the replacement before taking the lock, and destroy the old pool
  // (joining its workers) after releasing it: the lock only ever guards the
  // pointer swap, so a worker of the outgoing pool can never find the lock
  // held while it winds down.
  auto pool = std::make_unique<ThreadPool>(std::max(1, threads));
  {
    std::lock_guard lk(g_default_pool_mutex);
    g_default_pool.swap(pool);
  }
}

int thread_count_from_env() {
  // env_int already rejects — never partially accepts — trailing garbage
  // ("4abc"), empty strings and values that overflow long long; values below
  // INT_MIN or above kMaxEnvThreads are rejected here for the same hardware
  // fallback. A fully-parsed value below 1 clamps to 1 (the documented
  // pure-serial escape hatch).
  if (const auto v = env_int("DCSR_THREADS")) {
    if (*v >= INT_MIN && *v <= kMaxEnvThreads)
      return std::max(1, static_cast<int>(*v));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

int default_thread_count() {
  std::lock_guard lk(g_default_pool_mutex);
  return g_default_pool ? g_default_pool->threads() : thread_count_from_env();
}

void parallel_for_writes(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    FunctionRef<WriteSpan(std::int64_t, std::int64_t)> claim,
    FunctionRef<void(std::int64_t, std::int64_t)> fn, const char* site) {
  default_pool().parallel_for_writes(begin, end, grain, claim, fn, site);
}

}  // namespace dcsr

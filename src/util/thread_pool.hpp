#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/function_ref.hpp"

namespace dcsr {

/// Byte range a parallel chunk declares it will write. Claims are half-open:
/// [lo, hi). An empty claim (lo == hi, or both null) declares "this chunk
/// writes nothing the checker should track".
struct WriteSpan {
  const void* lo = nullptr;
  const void* hi = nullptr;
};

/// Claims the storage of `count` objects starting at `p` — the usual way a
/// kernel maps a chunk [lo, hi) onto the output slice it owns:
/// `span_of(out + lo * stride, (hi - lo) * stride)`.
template <typename T>
WriteSpan span_of(T* p, std::size_t count) noexcept {
  return {static_cast<const void*>(p), static_cast<const void*>(p + count)};
}

/// Thrown by the claim checker when two concurrent chunks declare
/// overlapping write ranges — a violation of the "disjoint outputs" rule the
/// whole determinism contract rests on. The message names both call sites.
class ParallelOverlapError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown by the claim-containment auditor (DCSR_CLAIM_CONTAIN) when a chunk
/// mutates bytes inside a *sibling* chunk's claim — the write escaped its own
/// declared span, so under real scheduling it would race with the sibling.
/// The message names the region site, the offending chunk, the victim chunk
/// and its byte range, and the first differing byte's offset within the
/// victim's claim; the same facts are exposed as accessors for tests.
class ClaimContainmentError : public std::logic_error {
 public:
  ClaimContainmentError(const std::string& message, const char* site,
                        std::int64_t chunk, std::int64_t victim_chunk,
                        std::size_t byte_offset)
      : std::logic_error(message),
        site_(site),
        chunk_(chunk),
        victim_chunk_(victim_chunk),
        byte_offset_(byte_offset) {}

  /// Region call site (both chunks belong to the same region).
  const char* site() const noexcept { return site_; }
  /// Index of the chunk whose writes escaped its claim.
  std::int64_t chunk() const noexcept { return chunk_; }
  /// Index of the chunk whose claimed span was mutated.
  std::int64_t victim_chunk() const noexcept { return victim_chunk_; }
  /// Offset of the first corrupted byte, relative to the victim claim's lo.
  std::size_t byte_offset() const noexcept { return byte_offset_; }

 private:
  const char* site_;
  std::int64_t chunk_;
  std::int64_t victim_chunk_;
  std::size_t byte_offset_;
};

/// Whether write-claim checking is active. Resolved once from the
/// environment on first use: `DCSR_CHECK_PARALLEL=1` (or `on`/`true`) turns
/// it on, `=0` (or `off`/`false`) turns it off, unset defaults to on in a
/// `-DDCSR_CHECKED=ON` build and off otherwise.
bool parallel_check_enabled() noexcept;

/// Force the checker on or off, overriding the environment. Test hook; also
/// lets a long-lived server enable checking for a canary slice of traffic.
void set_parallel_check_enabled(bool enabled) noexcept;

/// Whether the claim-containment auditor is active. Always false when the
/// replay path is compiled out (DCSR_CLAIM_CONTAIN=0, the release default);
/// otherwise resolved once from the `DCSR_CLAIM_CONTAIN` environment
/// variable (hardened env_bool parse: `1`/`on`/`true` on, `0`/`off`/`false`
/// off), defaulting to on. Containment is a sub-mode of the claim checker:
/// it only engages when parallel_check_enabled() is also true, because the
/// spans it audits *are* the registered claims.
bool claim_contain_enabled() noexcept;

/// Force the containment auditor on or off, overriding the environment.
/// Test hook; a no-op (stays off) when the replay path is compiled out.
void set_claim_contain_enabled(bool enabled) noexcept;

/// Persistent worker pool behind `parallel_for_writes`.
///
/// Everything compute-bound in the library (GEMM row blocks, encoder GOPs,
/// training units) is expressed as a static-chunked
/// `parallel_for_writes` over an index range. Determinism is a hard
/// contract: the kernels only ever parallelise over *disjoint outputs* and
/// reduce any shared accumulators in index order, so results are
/// bit-identical no matter how many threads run — a pool of 1 is exactly the
/// serial program. Each region declares the output span every chunk owns, so
/// the disjointness half of that contract is machine-checked.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the calling thread always participates);
  /// `threads <= 1` spawns none and every region runs inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads this pool targets (including the caller).
  int threads() const noexcept { return threads_; }

  /// Splits [begin, end) into at most `threads()` contiguous chunks, each of
  /// at least `grain` indices, and runs `fn(chunk_begin, chunk_end)` for
  /// every chunk — the first on the calling thread, the rest on workers.
  /// Blocks until all chunks finish; the first exception thrown by any chunk
  /// is rethrown here. Nested calls (from inside a chunk) degrade to inline
  /// serial execution, so layered kernels never deadlock or oversubscribe.
  /// `begin == end` is a no-op; `end < begin` and `grain < 1` throw
  /// std::invalid_argument.
  ///
  /// `claim(chunk_begin, chunk_end)` returns the byte span that chunk will
  /// write. When the checker is active (see parallel_check_enabled) the
  /// claims for *all* chunks of the region are computed up front — so
  /// detection is deterministic, not a function of scheduling luck — and
  /// validated for pairwise disjointness and against every claim of every
  /// other region currently in flight; any overlap throws
  /// ParallelOverlapError naming both sites. When the checker is off the
  /// claim callback is never invoked. Nested (inline) regions skip claiming:
  /// they add no concurrency, and their writes legitimately land inside the
  /// enclosing chunk's claim. A chunk that writes nothing shared (its results
  /// go through a mutex or an atomic) claims the empty `WriteSpan{}`.
  ///
  /// `claim` and `fn` are FunctionRefs — non-owning views, never heap-backed
  /// copies — because dispatch itself must stay allocation-free: every
  /// kernel beneath an Edsr frame runs under a DCSR_ALLOC_CHECK HotPathGuard,
  /// and the guard is re-installed on pool workers (see active_hot_path) so
  /// the fan-out is audited end to end.
  ///
  /// With the containment auditor also active (claim_contain_enabled; the
  /// DCSR_CLAIM_CONTAIN checked-build switch), the region additionally runs
  /// in isolation-replay mode: chunks of the *canonical* decomposition (a
  /// fixed 4-way split, independent of this pool's size, so detection is
  /// identical at DCSR_THREADS=1 and =4) execute serially in index order;
  /// every chunk's claimed span is snapshotted up front, and after chunk i
  /// runs each sibling claim is byte-compared against its snapshot — any
  /// mutation lands a ClaimContainmentError naming the site, offending
  /// chunk, victim chunk/range, and byte offset. Bit-identical results are
  /// already contractual across decompositions, so replay observes, never
  /// alters, the output. With the switch compiled out (release) this path
  /// is byte-for-byte the plain checker.
  void parallel_for_writes(
      std::int64_t begin, std::int64_t end, std::int64_t grain,
      FunctionRef<WriteSpan(std::int64_t, std::int64_t)> claim,
      FunctionRef<void(std::int64_t, std::int64_t)> fn,
      const char* site = "unnamed parallel_for_writes");

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int threads_;
};

/// Persistent single-task worker for producer/consumer pipelining.
///
/// The segment pipeline keeps exactly one producer in flight ahead of the
/// consumer. Doing that with std::async hands every segment to a *fresh*
/// thread, so thread-local state — above all the Workspace arena — is cold
/// again each segment (the PR-4 caveat). A PipelineThread owns one thread
/// for its whole lifetime and runs one task at a time on it, so the
/// producer's workspace warms once and stays warm across every segment of a
/// playback: the zero-miss steady-state guarantee extends to pipelining.
///
/// `run` hands the thread a task; at most one may be in flight (a second
/// `run` before `wait` throws std::logic_error). The task is a FunctionRef —
/// non-owning — so the callable must outlive the run/wait pair; the segment
/// pipeline keeps one named lambda alive for the whole playback. `wait`
/// blocks until the task finishes and rethrows anything it threw. The
/// destructor waits for an in-flight task (discarding its exception, since
/// unwinding may already be in progress) and joins the thread.
class PipelineThread {
 public:
  PipelineThread();
  ~PipelineThread();
  PipelineThread(const PipelineThread&) = delete;
  PipelineThread& operator=(const PipelineThread&) = delete;

  /// Starts `fn` on the worker thread. Precondition: no task in flight.
  void run(FunctionRef<void()> fn);

  /// Blocks until the in-flight task (if any) finishes; rethrows its
  /// exception, if it threw. Idempotent when nothing is in flight.
  void wait();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide default pool, created on first use. Sized from the
/// `DCSR_THREADS` environment variable when set (see thread_count_from_env),
/// otherwise from `std::thread::hardware_concurrency()`.
ThreadPool& default_pool();

/// Replaces the default pool with one of the given size. Intended for tests
/// and benches sweeping thread counts; callers must be quiescent (no
/// parallel region in flight) when swapping.
void set_default_pool_threads(int threads);

/// Thread count the default pool would use (without forcing its creation
/// beyond reading the environment).
int default_thread_count();

/// Largest `DCSR_THREADS` value accepted. The pool spawns one worker per
/// thread and sizes its task ring to twice that, so an unbounded value would
/// ask the OS for billions of threads on the first parallel region.
inline constexpr int kMaxEnvThreads = 256;

/// Parses `DCSR_THREADS` and falls back to hardware_concurrency(). The value
/// must parse *completely* as an integer no greater than kMaxEnvThreads —
/// trailing garbage ("4abc"), overflow ("999999999999"), values above the
/// bound ("100000") and non-numeric strings are rejected outright (hardware
/// fallback), never partially accepted or clamped. A fully-parsed value
/// below 1 clamps to 1 (pure serial execution — handy for debugging). This
/// is what sizes the default pool on first use; exposed so the policy is
/// testable.
int thread_count_from_env();

/// `default_pool().parallel_for_writes(...)` convenience wrapper.
void parallel_for_writes(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    FunctionRef<WriteSpan(std::int64_t, std::int64_t)> claim,
    FunctionRef<void(std::int64_t, std::int64_t)> fn,
    const char* site = "unnamed parallel_for_writes");

}  // namespace dcsr

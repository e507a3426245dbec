#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/checked.hpp"

namespace dcsr {

class Workspace;

/// Bit pattern checked builds (DCSR_POISON_WORKSPACE) fill workspace buffers
/// with on acquire *and* on release: a signaling NaN, so any arithmetic on a
/// value the caller never wrote — an uninitialized checkout or a stale read
/// through a released buffer — yields NaN and trips the FiniteCheckGuard /
/// output comparisons immediately instead of silently reusing old frame
/// data. Release builds never touch buffer contents (acquire's "contents are
/// unspecified" contract is what makes the poison a pure observation).
inline constexpr std::uint32_t kWorkspacePoisonBits = 0x7fa00000u;

/// RAII checkout of a scratch tensor from a Workspace. Move-only; the
/// destructor returns the buffer (with whatever capacity it grew to) to the
/// owning workspace's free list, so the next acquire of a same-or-smaller
/// shape is allocation-free. Must be released on the thread that acquired it
/// — a WorkspaceTensor never crosses threads (see Workspace).
class WorkspaceTensor {
 public:
  WorkspaceTensor() = default;
  WorkspaceTensor(WorkspaceTensor&& other) noexcept
      : ws_(std::exchange(other.ws_, nullptr)),
        tensor_(std::move(other.tensor_)) {}
  WorkspaceTensor& operator=(WorkspaceTensor&& other) noexcept;
  WorkspaceTensor(const WorkspaceTensor&) = delete;
  WorkspaceTensor& operator=(const WorkspaceTensor&) = delete;
  ~WorkspaceTensor() { release(); }

  Tensor& get() noexcept { return tensor_; }
  const Tensor& get() const noexcept { return tensor_; }
  Tensor& operator*() noexcept { return tensor_; }
  const Tensor& operator*() const noexcept { return tensor_; }
  Tensor* operator->() noexcept { return &tensor_; }
  const Tensor* operator->() const noexcept { return &tensor_; }

  bool valid() const noexcept { return ws_ != nullptr; }

 private:
  friend class Workspace;
  WorkspaceTensor(Workspace* ws, Tensor t) : ws_(ws), tensor_(std::move(t)) {}
  void release() noexcept;

  Workspace* ws_ = nullptr;
  Tensor tensor_;
};

/// Reusable scratch arena for the inference hot path.
///
/// A Workspace is a free list of Tensors kept sorted by capacity. acquire()
/// checks out the smallest cached buffer that can hold the requested shape
/// (a *hit* — reshape in place, no heap traffic) and only touches the
/// allocator when nothing cached is big enough (a *miss*). Because every
/// checkout made during one frame is returned before the next frame starts,
/// a frame that completes without misses leaves the free list exactly as it
/// found it — so steady-state playback runs with zero allocator traffic, and
/// the hit/miss counters prove it (see Edsr.SteadyStateEnhance tests and
/// BM_EdsrEnhanceSteadyState).
///
/// Ownership rules (the threading half of the contract):
///   - One Workspace belongs to one thread. `Workspace::local()` hands every
///     thread its own instance; pool workers warm their own arenas.
///   - A WorkspaceTensor must be released on the acquiring thread. Nothing
///     here is locked — cross-thread release is a data race by construction.
///   - Concurrent `infer`/`enhance` calls on a shared model are still safe
///     precisely because each calling thread draws scratch from its own
///     workspace; the model itself stays untouched.
class Workspace {
 public:
  struct Stats {
    std::uint64_t hits = 0;             // checkouts served from the free list
    std::uint64_t misses = 0;           // checkouts that had to allocate
    std::uint64_t bytes_allocated = 0;  // cumulative bytes of miss traffic
    std::uint64_t outstanding = 0;      // live checkouts right now
    std::uint64_t cached = 0;           // buffers parked in the free list
  };

  Workspace();
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Checks out a tensor of the given shape. Contents are unspecified —
  /// callers fully overwrite (or zero()) it; checked builds poison them with
  /// kWorkspacePoisonBits to enforce that. Counts a hit when a cached
  /// buffer's capacity covered the request, a miss otherwise. Throws
  /// std::invalid_argument on a non-positive dimension — before any counter
  /// moves or any buffer leaves the free list, so a failed acquire never
  /// leaks a checkout (outstanding is incremented only once the checkout
  /// exists and is owned by RAII). Takes an inline Shape (braced lists
  /// convert implicitly): a hit performs no heap allocation at all,
  /// which is what lets acquire run inside a DCSR_ALLOC_CHECK hot-path
  /// guard; a miss is sanctioned as warm-up traffic.
  WorkspaceTensor acquire(const Shape& shape);

  /// acquire() + zero-fill, for kernels that accumulate into their output.
  WorkspaceTensor acquire_zeroed(const Shape& shape);

  Stats stats() const noexcept;

  /// Drops every cached buffer (outstanding checkouts are unaffected and
  /// still return to the list). Frees the memory; the next frame re-warms.
  void clear() noexcept;

  /// This thread's workspace, created on first use and destroyed at thread
  /// exit. The only instance most code should touch.
  static Workspace& local();

  /// Stats summed over every live thread's workspace — the process-wide
  /// allocator-traffic view the benchmarks report.
  static Stats aggregate_stats();

 private:
  friend class WorkspaceTensor;
  void release(Tensor&& t) noexcept;

  std::vector<Tensor> free_;  // sorted ascending by capacity()
  // Counters are written by the owning thread only but read cross-thread by
  // aggregate_stats(); relaxed atomics keep that read race-free without
  // serialising the hot path.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> bytes_allocated_{0};
  std::atomic<std::uint64_t> outstanding_{0};
  std::atomic<std::uint64_t> cached_{0};
};

}  // namespace dcsr

#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/shape.hpp"
#include "util/checked.hpp"
#include "util/rng.hpp"

// Checked accessors lose their noexcept in bounds-checked builds — a failed
// check must throw, not terminate.
#if DCSR_BOUNDS_CHECK
#define DCSR_BOUNDS_NOEXCEPT
#else
#define DCSR_BOUNDS_NOEXCEPT noexcept
#endif

namespace dcsr {

/// Thrown by bounds-checked tensor access (DCSR_BOUNDS_CHECK builds): an
/// element index outside the data, a view/slice past the end, or a rank that
/// does not match the accessor. The message names the call site, the tensor
/// shape, and the offending index. Derives from std::out_of_range so generic
/// handlers keep working; release builds compile the checks out entirely.
class TensorBoundsError : public std::out_of_range {
 public:
  explicit TensorBoundsError(const std::string& what) : std::out_of_range(what) {}
};

namespace detail {
[[noreturn]] void throw_tensor_bounds(const char* site, const Shape& shape,
                                      const std::string& detail);
}  // namespace detail

/// Dense float tensor in row-major (NCHW for 4-D) layout.
///
/// The tensor is deliberately simple: contiguous storage, explicit shape, no
/// views or broadcasting. The neural-network layers in dcsr_nn implement
/// their own forward/backward kernels on top of this, which keeps the whole
/// training stack auditable — important here because the SR models are the
/// object of study, not an implementation detail.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-initialised tensor with the given shape. Allocation is
  /// sanctioned (AllocAllowScope): constructing a Tensor inside a hot-path
  /// guard is the Workspace miss path, a legitimate warm-up allocation.
  explicit Tensor(const Shape& shape);
  Tensor(std::initializer_list<int> shape) : Tensor(Shape(shape)) {}

  static Tensor zeros(const Shape& shape) { return Tensor(shape); }
  static Tensor full(const Shape& shape, float value);

  /// He/Kaiming-normal init for conv/linear weights (fan_in based).
  static Tensor randn(const Shape& shape, Rng& rng, float stddev = 1.0f);

  const Shape& shape() const noexcept { return shape_; }
  int dim(std::size_t i) const noexcept { return shape_[i]; }
  std::size_t rank() const noexcept { return shape_.rank(); }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  std::span<float> span() noexcept { return data_; }
  std::span<const float> span() const noexcept { return data_; }

  float& operator[](std::size_t i) DCSR_BOUNDS_NOEXCEPT {
    check_flat(i, "Tensor::operator[]");
    return data_[i];
  }
  float operator[](std::size_t i) const DCSR_BOUNDS_NOEXCEPT {
    check_flat(i, "Tensor::operator[]");
    return data_[i];
  }

  /// 4-D accessors (NCHW). Bounds are assert-checked in debug builds and
  /// throw TensorBoundsError in DCSR_BOUNDS_CHECK builds.
  float& at(int n, int c, int h, int w) DCSR_BOUNDS_NOEXCEPT {
    assert(rank() == 4);
    check4(n, c, h, w, "Tensor::at(n,c,h,w)");
    return data_[idx4(n, c, h, w)];
  }
  float at(int n, int c, int h, int w) const DCSR_BOUNDS_NOEXCEPT {
    assert(rank() == 4);
    check4(n, c, h, w, "Tensor::at(n,c,h,w)");
    return data_[idx4(n, c, h, w)];
  }

  /// 2-D accessors (rows x cols).
  float& at(int r, int c) DCSR_BOUNDS_NOEXCEPT {
    assert(rank() == 2);
    check2(r, c, "Tensor::at(r,c)");
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(shape_[1]) +
                 static_cast<std::size_t>(c)];
  }
  float at(int r, int c) const DCSR_BOUNDS_NOEXCEPT {
    assert(rank() == 2);
    check2(r, c, "Tensor::at(r,c)");
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(shape_[1]) +
                 static_cast<std::size_t>(c)];
  }

  /// Contiguous view of `count` elements starting at flat offset `offset`.
  /// Range-checked in DCSR_BOUNDS_CHECK builds; an unchecked thin span in
  /// release. The view is invalidated by any reallocation (reset/reshaped).
  std::span<float> view(std::size_t offset, std::size_t count) DCSR_BOUNDS_NOEXCEPT {
    check_view(offset, count, "Tensor::view");
    return {data_.data() + offset, count};
  }
  std::span<const float> view(std::size_t offset, std::size_t count) const
      DCSR_BOUNDS_NOEXCEPT {
    check_view(offset, count, "Tensor::view");
    return {data_.data() + offset, count};
  }

  /// The i-th outermost sub-tensor as a contiguous span: one image of an
  /// NCHW batch, one row of a matrix. Index- and rank-checked in
  /// DCSR_BOUNDS_CHECK builds.
  std::span<float> slice(int i) DCSR_BOUNDS_NOEXCEPT {
    check_slice(i, "Tensor::slice");
    const std::size_t stride = slice_stride();
    return {data_.data() + static_cast<std::size_t>(i) * stride, stride};
  }
  std::span<const float> slice(int i) const DCSR_BOUNDS_NOEXCEPT {
    check_slice(i, "Tensor::slice");
    const std::size_t stride = slice_stride();
    return {data_.data() + static_cast<std::size_t>(i) * stride, stride};
  }

  /// Returns a copy with a new shape of equal element count.
  Tensor reshaped(const Shape& shape) const;

  /// Reshapes this tensor in place to `shape`, reusing the existing heap
  /// block whenever its capacity suffices. Contents are unspecified
  /// afterwards (callers must fully overwrite or zero() first). Returns true
  /// when the storage was reused, false when the change of size forced a
  /// reallocation — the signal the Workspace uses for hit/miss accounting.
  /// A reusing reset performs no heap allocation at all — the invariant the
  /// DCSR_ALLOC_CHECK steady-state pins rely on.
  bool reset(const Shape& shape);

  /// Floats the underlying heap block can hold without reallocating.
  std::size_t capacity() const noexcept { return data_.capacity(); }

  void fill(float v) noexcept;
  void zero() noexcept { fill(0.0f); }

  /// In-place compound ops used by optimisers.
  Tensor& add_(const Tensor& other);
  Tensor& scale_(float s) noexcept;
  Tensor& axpy_(float alpha, const Tensor& other);  // this += alpha * other

  bool same_shape(const Tensor& other) const noexcept {
    return shape_ == other.shape_;
  }

 private:
  // Bounds checks. Each compiles to nothing when DCSR_BOUNDS_CHECK is 0, so
  // the release-build accessors stay branch-free; with checking on, failures
  // throw TensorBoundsError naming shape, index, and call site.
  void check_flat(std::size_t i, const char* site) const DCSR_BOUNDS_NOEXCEPT {
#if DCSR_BOUNDS_CHECK
    if (i >= data_.size())
      detail::throw_tensor_bounds(site, shape_,
                                  "flat index " + std::to_string(i) +
                                      " >= size " + std::to_string(data_.size()));
#endif
    (void)i;
    (void)site;
  }
  void check4(int n, int c, int h, int w, const char* site) const
      DCSR_BOUNDS_NOEXCEPT {
#if DCSR_BOUNDS_CHECK
    if (rank() != 4)
      detail::throw_tensor_bounds(site, shape_, "rank-4 access on rank-" +
                                                    std::to_string(rank()) +
                                                    " tensor");
    const int idx[4] = {n, c, h, w};
    for (int d = 0; d < 4; ++d)
      if (idx[d] < 0 || idx[d] >= shape_[static_cast<std::size_t>(d)])
        detail::throw_tensor_bounds(
            site, shape_,
            "index " + std::to_string(idx[d]) + " out of range for dim " +
                std::to_string(d));
#endif
    (void)n; (void)c; (void)h; (void)w;
    (void)site;
  }
  void check2(int r, int c, const char* site) const DCSR_BOUNDS_NOEXCEPT {
#if DCSR_BOUNDS_CHECK
    if (rank() != 2)
      detail::throw_tensor_bounds(site, shape_, "rank-2 access on rank-" +
                                                    std::to_string(rank()) +
                                                    " tensor");
    if (r < 0 || r >= shape_[0] || c < 0 || c >= shape_[1])
      detail::throw_tensor_bounds(site, shape_,
                                  "index (" + std::to_string(r) + ", " +
                                      std::to_string(c) + ") out of range");
#endif
    (void)r; (void)c;
    (void)site;
  }
  void check_view(std::size_t offset, std::size_t count, const char* site) const
      DCSR_BOUNDS_NOEXCEPT {
#if DCSR_BOUNDS_CHECK
    if (offset > data_.size() || count > data_.size() - offset)
      detail::throw_tensor_bounds(site, shape_,
                                  "view [" + std::to_string(offset) + ", " +
                                      std::to_string(offset + count) +
                                      ") past size " +
                                      std::to_string(data_.size()));
#endif
    (void)offset; (void)count;
    (void)site;
  }
  void check_slice(int i, const char* site) const DCSR_BOUNDS_NOEXCEPT {
#if DCSR_BOUNDS_CHECK
    if (rank() == 0)
      detail::throw_tensor_bounds(site, shape_, "slice of a rank-0 tensor");
    if (i < 0 || i >= shape_[0])
      detail::throw_tensor_bounds(site, shape_,
                                  "slice " + std::to_string(i) +
                                      " out of range for dim 0");
#endif
    (void)i;
    (void)site;
  }
  std::size_t slice_stride() const noexcept {
    std::size_t s = 1;
    for (std::size_t d = 1; d < shape_.rank(); ++d)
      s *= static_cast<std::size_t>(shape_[d]);
    return s;
  }

  std::size_t idx4(int n, int c, int h, int w) const noexcept {
    const auto C = static_cast<std::size_t>(shape_[1]);
    const auto H = static_cast<std::size_t>(shape_[2]);
    const auto W = static_cast<std::size_t>(shape_[3]);
    return ((static_cast<std::size_t>(n) * C + static_cast<std::size_t>(c)) * H +
            static_cast<std::size_t>(h)) *
               W +
           static_cast<std::size_t>(w);
  }

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace dcsr

#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <ostream>
#include <string>

namespace dcsr {

namespace detail {
[[noreturn]] void throw_shape_rank(std::size_t rank);
}  // namespace detail

/// Fixed-capacity tensor shape: up to kMaxRank dimensions stored inline.
///
/// Shapes flow through every per-frame call — out_shape chains, workspace
/// acquires, tensor resets — and carrying them as std::vector<int> meant one
/// heap allocation per hop, which the DCSR_ALLOC_CHECK auditor rightly flags
/// inside hot-path guards. A Shape is a plain value (array + rank): copying
/// one is a register move, and building one from a braced list (implicit, so
/// `{n, c, h, w}` reads as a shape at every call site) touches no heap. It is
/// the only shape type: Tensor stores one. Rank above kMaxRank throws
/// std::invalid_argument — nothing in the codebase goes past rank 4.
class Shape {
 public:
  static constexpr int kMaxRank = 8;

  Shape() noexcept = default;
  Shape(std::initializer_list<int> dims) { assign(dims.begin(), dims.size()); }

  std::size_t size() const noexcept { return rank_; }
  std::size_t rank() const noexcept { return rank_; }
  bool empty() const noexcept { return rank_ == 0; }

  int operator[](std::size_t i) const noexcept { return dims_[i]; }
  int& operator[](std::size_t i) noexcept { return dims_[i]; }

  const int* begin() const noexcept { return dims_.data(); }
  const int* end() const noexcept { return dims_.data() + rank_; }

  /// "NxCxHxW" for diagnostics (allocates — error paths only).
  std::string str() const;

  friend bool operator==(const Shape& a, const Shape& b) noexcept {
    if (a.rank_ != b.rank_) return false;
    for (std::size_t i = 0; i < a.rank_; ++i)
      if (a.dims_[i] != b.dims_[i]) return false;
    return true;
  }

 private:
  void assign(const int* dims, std::size_t n) {
    if (n > static_cast<std::size_t>(kMaxRank)) detail::throw_shape_rank(n);
    rank_ = n;
    for (std::size_t i = 0; i < n; ++i) dims_[i] = dims[i];
  }

  std::array<int, kMaxRank> dims_{};
  std::size_t rank_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Shape& s);

}  // namespace dcsr

#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/alloc_check.hpp"

namespace dcsr {

/// One image plane of float samples. Pixel values are normalised to [0,1];
/// the codec quantises in this domain and SR models consume it directly, so
/// no 8-bit round-trips happen between pipeline stages except where the
/// codec's quantiser deliberately introduces loss.
class Plane {
 public:
  Plane() = default;
  Plane(int width, int height)
      : width_(width), height_(height),
        data_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
              0.0f) {}

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float& at(int x, int y) noexcept {
    assert(x >= 0 && x < width_ && y >= 0 && y < height_);
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }
  float at(int x, int y) const noexcept {
    assert(x >= 0 && x < width_ && y >= 0 && y < height_);
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }

  /// Clamped access: coordinates outside the plane read the nearest edge
  /// sample. Used by filters and motion compensation at frame borders.
  float at_clamped(int x, int y) const noexcept {
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }

  /// Whether the `w`x`h` rectangle at (x0, y0) lies inside the plane: the
  /// test a block reader passes before it reads rows through ptr() instead
  /// of clamped samples.
  bool contains(int x0, int y0, int w, int h) const noexcept {
    return x0 >= 0 && y0 >= 0 && x0 + w <= width_ && y0 + h <= height_;
  }

  /// Pointer to sample (x, y); the next row starts width() floats on.
  const float* ptr(int x, int y) const noexcept {
    assert(x >= 0 && x < width_ && y >= 0 && y < height_);
    return data_.data() + static_cast<std::size_t>(y) * width_ + x;
  }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }

  /// Resizes the plane in place, reusing the existing heap block whenever
  /// its capacity suffices. Contents are unspecified afterwards — callers
  /// fully overwrite. The warm-buffer path of tensor_to_frames_into below.
  void reset(int width, int height) {
    width_ = width;
    height_ = height;
    const std::size_t n =
        static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
    if (n <= data_.capacity()) {
      data_.resize(n);
    } else {
      // First-use growth is sanctioned warm-up; warm frames stay on the
      // capacity-reuse branch above and never touch the heap.
      AllocAllowScope allow;
      data_.resize(n);
    }
  }

  void fill(float v) noexcept {
    for (auto& p : data_) p = v;
  }

  /// Clamps all samples into [0,1].
  void clamp01() noexcept;

  bool same_size(const Plane& other) const noexcept {
    return width_ == other.width_ && height_ == other.height_;
  }

 private:
  int width_ = 0, height_ = 0;
  std::vector<float> data_;
};

/// RGB frame, planar.
struct FrameRGB {
  Plane r, g, b;

  FrameRGB() = default;
  FrameRGB(int width, int height) : r(width, height), g(width, height), b(width, height) {}

  int width() const noexcept { return r.width(); }
  int height() const noexcept { return r.height(); }
  bool empty() const noexcept { return r.empty(); }
};

/// YUV 4:2:0 frame: full-resolution luma, half-resolution chroma — the
/// layout H.264 decoders keep in the decoded picture buffer. Dimensions must
/// be even.
struct FrameYUV {
  Plane y, u, v;

  FrameYUV() = default;
  FrameYUV(int width, int height)
      : y(width, height), u(width / 2, height / 2), v(width / 2, height / 2) {
    assert(width % 2 == 0 && height % 2 == 0);
  }

  int width() const noexcept { return y.width(); }
  int height() const noexcept { return y.height(); }
  bool empty() const noexcept { return y.empty(); }
};

/// The one frame<->tensor packing (model input/output layout). Packs `n`
/// same-sized RGB frames into one Nx3xHxW tensor, channel planes in r, g, b
/// order; a single frame is a batch of 1. Batch item i depends on frames[i]
/// alone, so batching is a layout decision, never a value change. The
/// destination is reshaped in place, so a warm buffer (workspace checkout)
/// is reused instead of reallocated on every call. Throws
/// std::invalid_argument on an empty batch or mixed frame geometry.
void frames_to_tensor_into(const FrameRGB* const* frames, int n, Tensor& t);

/// Unpacks an Nx3xHxW tensor into frames[0..N), clamping samples to [0,1].
/// Each destination frame is resized in place (warm planes are rewritten
/// without touching the heap).
void tensor_to_frames_into(const Tensor& t, FrameRGB* const* frames);

}  // namespace dcsr

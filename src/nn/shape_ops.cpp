#include "nn/shape_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "tensor/workspace.hpp"
#include "util/alloc_check.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::nn {

namespace {

// Shape errors are raised from out_shape, which containers call under their
// hot-path guard: sanction the message build so the caller sees the
// invalid_argument, not a HotPathAllocError.
[[noreturn]] void shape_error(const char* what) {
  AllocAllowScope allow;
  throw std::invalid_argument(what);
}

// Grain for plane-parallel loops: keep small layers serial (the pool
// dispatch would dominate), give big frames one chunk per thread.
std::int64_t plane_grain(std::size_t plane_floats) {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(32768 / std::max<std::size_t>(1, plane_floats)));
}

}  // namespace

Shape PixelShuffle::out_shape(const Shape& in) const {
  const int r = scale_;
  if (in.size() != 4 || in[1] % (r * r) != 0)
    shape_error("PixelShuffle: channels not divisible by r^2");
  return {in[0], in[1] / (r * r), in[2] * r, in[3] * r};
}

void PixelShuffle::infer_into(const Tensor& x, Tensor& out, Workspace& ws) const {
  (void)ws;  // pure gather, no scratch
  const Shape out_s = out_shape(x.shape());
  HotPathGuard alloc_guard("nn/shape_ops.cpp:PixelShuffle::infer_into");
  const int r = scale_;
  const int N = x.dim(0), C = out_s[1], H = x.dim(2), W = x.dim(3);
  out.reset(out_s);
  // Every output plane (n, c) is a pure gather from input planes — disjoint
  // writes, no accumulation, so the plane fan-out is bit-identical for any
  // thread count. Each chunk claims its contiguous run of output planes.
  const std::size_t plane = static_cast<std::size_t>(H) * r * W * r;
  const auto claim = [&, plane](std::int64_t lo, std::int64_t hi) {
    return span_of(out.data() + static_cast<std::size_t>(lo) * plane,
                   static_cast<std::size_t>(hi - lo) * plane);
  };
  parallel_for_writes(
      0, static_cast<std::int64_t>(N) * C, plane_grain(plane), claim,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p) {
          const int n = static_cast<int>(p / C);
          const int c = static_cast<int>(p % C);
          for (int dy = 0; dy < r; ++dy)
            for (int dx = 0; dx < r; ++dx) {
              const int ic = c * r * r + dy * r + dx;
              for (int h = 0; h < H; ++h)
                for (int w = 0; w < W; ++w)
                  out.at(n, c, h * r + dy, w * r + dx) = x.at(n, ic, h, w);
            }
        }
      },
      "nn/shape_ops.cpp:PixelShuffle::infer");
  FiniteCheckGuard{*this, out};
}

Tensor PixelShuffle::backward(const Tensor& grad_out) {
  const int r = scale_;
  const int N = grad_out.dim(0), C = grad_out.dim(1);
  const int H = grad_out.dim(2) / r, W = grad_out.dim(3) / r;
  Tensor grad({N, C * r * r, H, W});
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c)
      for (int dy = 0; dy < r; ++dy)
        for (int dx = 0; dx < r; ++dx) {
          const int ic = c * r * r + dy * r + dx;
          for (int h = 0; h < H; ++h)
            for (int w = 0; w < W; ++w)
              grad.at(n, ic, h, w) = grad_out.at(n, c, h * r + dy, w * r + dx);
        }
  return grad;
}

namespace {

// Source position and interpolation weight for one output coordinate under
// centre-aligned bilinear upsampling by `r`.
struct Tap {
  int i0, i1;
  float w1;  // weight of i1; i0 gets (1 - w1)
};

Tap bilinear_tap(int o, int r, int in_size) noexcept {
  const float src = (static_cast<float>(o) + 0.5f) / static_cast<float>(r) - 0.5f;
  int i0 = static_cast<int>(std::floor(src));
  float w1 = src - static_cast<float>(i0);
  int i1 = i0 + 1;
  if (i0 < 0) {
    i0 = 0;
    i1 = 0;
    w1 = 0.0f;
  }
  if (i1 >= in_size) {
    i1 = in_size - 1;
    if (i0 >= in_size) i0 = in_size - 1;
    if (i0 == i1) w1 = 0.0f;
  }
  return {i0, i1, w1};
}

}  // namespace

Shape BilinearUpsample::out_shape(const Shape& in) const {
  if (in.size() != 4) shape_error("BilinearUpsample: expected NCHW");
  return {in[0], in[1], in[2] * scale_, in[3] * scale_};
}

void BilinearUpsample::infer_into(const Tensor& x, Tensor& out,
                                  Workspace& ws) const {
  (void)ws;  // pure gather, no scratch
  const Shape out_s = out_shape(x.shape());
  HotPathGuard alloc_guard("nn/shape_ops.cpp:BilinearUpsample::infer_into");
  const int r = scale_;
  const int N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  out.reset(out_s);
  for (int oy = 0; oy < H * r; ++oy) {
    const Tap ty = bilinear_tap(oy, r, H);
    for (int ox = 0; ox < W * r; ++ox) {
      const Tap tx = bilinear_tap(ox, r, W);
      for (int n = 0; n < N; ++n)
        for (int c = 0; c < C; ++c) {
          const float top = x.at(n, c, ty.i0, tx.i0) * (1 - tx.w1) +
                            x.at(n, c, ty.i0, tx.i1) * tx.w1;
          const float bot = x.at(n, c, ty.i1, tx.i0) * (1 - tx.w1) +
                            x.at(n, c, ty.i1, tx.i1) * tx.w1;
          out.at(n, c, oy, ox) = top * (1 - ty.w1) + bot * ty.w1;
        }
    }
  }
  FiniteCheckGuard{*this, out};
}

Tensor BilinearUpsample::backward(const Tensor& grad_out) {
  const int r = scale_;
  const int N = grad_out.dim(0), C = grad_out.dim(1);
  const int H = grad_out.dim(2) / r, W = grad_out.dim(3) / r;
  Tensor grad({N, C, H, W});
  for (int oy = 0; oy < H * r; ++oy) {
    const Tap ty = bilinear_tap(oy, r, H);
    for (int ox = 0; ox < W * r; ++ox) {
      const Tap tx = bilinear_tap(ox, r, W);
      for (int n = 0; n < N; ++n)
        for (int c = 0; c < C; ++c) {
          const float g = grad_out.at(n, c, oy, ox);
          grad.at(n, c, ty.i0, tx.i0) += g * (1 - ty.w1) * (1 - tx.w1);
          grad.at(n, c, ty.i0, tx.i1) += g * (1 - ty.w1) * tx.w1;
          grad.at(n, c, ty.i1, tx.i0) += g * ty.w1 * (1 - tx.w1);
          grad.at(n, c, ty.i1, tx.i1) += g * ty.w1 * tx.w1;
        }
    }
  }
  return grad;
}

Shape UpsampleNearest::out_shape(const Shape& in) const {
  if (in.size() != 4) shape_error("UpsampleNearest: expected NCHW");
  return {in[0], in[1], in[2] * scale_, in[3] * scale_};
}

void UpsampleNearest::infer_into(const Tensor& x, Tensor& out,
                                 Workspace& ws) const {
  (void)ws;  // pure replication, no scratch
  const Shape out_s = out_shape(x.shape());
  HotPathGuard alloc_guard("nn/shape_ops.cpp:UpsampleNearest::infer_into");
  const int r = scale_;
  const int N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  out.reset(out_s);
  // Plane fan-out, same shape as PixelShuffle::infer: disjoint output
  // planes, pure replication, each chunk claiming its plane run.
  const std::size_t plane = static_cast<std::size_t>(H) * r * W * r;
  const auto claim = [&, plane](std::int64_t lo, std::int64_t hi) {
    return span_of(out.data() + static_cast<std::size_t>(lo) * plane,
                   static_cast<std::size_t>(hi - lo) * plane);
  };
  parallel_for_writes(
      0, static_cast<std::int64_t>(N) * C, plane_grain(plane), claim,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p) {
          const int n = static_cast<int>(p / C);
          const int c = static_cast<int>(p % C);
          for (int h = 0; h < H * r; ++h)
            for (int w = 0; w < W * r; ++w)
              out.at(n, c, h, w) = x.at(n, c, h / r, w / r);
        }
      },
      "nn/shape_ops.cpp:UpsampleNearest::infer");
  FiniteCheckGuard{*this, out};
}

Tensor UpsampleNearest::backward(const Tensor& grad_out) {
  const int r = scale_;
  const int N = grad_out.dim(0), C = grad_out.dim(1);
  const int H = grad_out.dim(2) / r, W = grad_out.dim(3) / r;
  Tensor grad({N, C, H, W});
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c)
      for (int h = 0; h < H * r; ++h)
        for (int w = 0; w < W * r; ++w)
          grad.at(n, c, h / r, w / r) += grad_out.at(n, c, h, w);
  return grad;
}

Tensor Flatten::forward(const Tensor& x) {
  Tensor out = infer(x);
  cached_shape_ = x.shape();
  return out;
}

Shape Flatten::out_shape(const Shape& in) const {
  if (in.size() != 4) shape_error("Flatten: expected NCHW");
  return {in[0], in[1] * in[2] * in[3]};
}

void Flatten::infer_into(const Tensor& x, Tensor& out, Workspace& ws) const {
  (void)ws;
  const Shape out_s = out_shape(x.shape());
  HotPathGuard alloc_guard("nn/shape_ops.cpp:Flatten::infer_into");
  out.reset(out_s);
  std::copy(x.data(), x.data() + x.size(), out.data());
}

Tensor Flatten::backward(const Tensor& grad_out) {
  if (cached_shape_.empty())
    throw std::logic_error("Flatten::backward before forward");
  return grad_out.reshaped(cached_shape_);
}

Shape Reshape4::out_shape(const Shape& in) const {
  if (in.size() != 2) shape_error("Reshape4: expected 2-D input");
  if (in[1] != c_ * h_ * w_) shape_error("Reshape4: element count mismatch");
  return {in[0], c_, h_, w_};
}

void Reshape4::infer_into(const Tensor& x, Tensor& out, Workspace& ws) const {
  (void)ws;
  const Shape out_s = out_shape(x.shape());
  HotPathGuard alloc_guard("nn/shape_ops.cpp:Reshape4::infer_into");
  out.reset(out_s);
  std::copy(x.data(), x.data() + x.size(), out.data());
}

Tensor Reshape4::backward(const Tensor& grad_out) {
  return grad_out.reshaped({grad_out.dim(0), c_ * h_ * w_});
}

}  // namespace dcsr::nn

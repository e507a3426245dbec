#include "tensor/ops.hpp"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "simd/dispatch.hpp"
#include "util/alloc_check.hpp"
#include "util/thread_pool.hpp"

namespace dcsr {
namespace {

void require_2d(const Tensor& t, const char* what) {
  if (t.rank() != 2) {
    AllocAllowScope allow;
    throw std::invalid_argument(std::string(what) + ": expected 2-D tensor");
  }
}

// `n` must index an item of the NCHW tensor `t`: the kernels below address
// its planes through raw pointers, which nothing else bounds-checks.
void require_item(const Tensor& t, int n, const char* what) {
  if (n < 0 || n >= t.dim(0)) {
    AllocAllowScope allow;
    throw std::invalid_argument(std::string(what) + ": batch index " +
                                std::to_string(n) + " out of range for " +
                                t.shape().str());
  }
}

[[noreturn]] void shape_error(const char* what, const std::string& detail) {
  AllocAllowScope allow;
  throw std::invalid_argument(std::string(what) + ": " + detail);
}

void require_nchw_item(const Tensor& t, int n, const char* what) {
  if (t.rank() != 4) shape_error(what, "expected NCHW, got " + t.shape().str());
  require_item(t, n, what);
}

// Start of item n of an NCHW tensor.
const float* item_data(const Tensor& t, int n) {
  return t.data() + static_cast<std::size_t>(n) * t.dim(1) * t.dim(2) * t.dim(3);
}
float* item_data(Tensor& t, int n) {
  return t.data() + static_cast<std::size_t>(n) * t.dim(1) * t.dim(2) * t.dim(3);
}

// Grain of a region over a direct conv kernel's 4-channel blocks, from the
// flops of one block: each chunk carries at least ~1 MFLOP, so a small conv
// stays on the calling thread. Inside another region (a training unit) the
// region runs inline anyway.
std::int64_t conv_block_grain(std::int64_t flops_per_block) {
  return std::max<std::int64_t>(1, (1LL << 20) / std::max<std::int64_t>(1, flops_per_block) + 1);
}

// Copies item n of an NCHW tensor into `padded`, reshaped in place to
// C x (H+2) x (W+2), inside a zero border: the operand layout of the
// direct 3x3 kernels.
void pad_item(const Tensor& t, int n, Tensor& padded) {
  const int C = t.dim(1), H = t.dim(2), W = t.dim(3);
  padded.reset({C, H + 2, W + 2});
  const std::size_t pw = static_cast<std::size_t>(W) + 2;
  const float* src = item_data(t, n);
  float* p = padded.data();
  for (int c = 0; c < C; ++c) {
    std::fill(p, p + pw, 0.0f);
    p += pw;
    for (int y = 0; y < H; ++y, p += pw, src += W) {
      p[0] = 0.0f;
      std::copy(src, src + W, p + 1);
      p[W + 1] = 0.0f;
    }
    std::fill(p, p + pw, 0.0f);
    p += pw;
  }
}

// Output positions [lo, hi) along one conv axis whose kernel tap `k` reads
// an in-bounds input sample: 0 <= i * stride + k - pad < in.
std::pair<int, int> valid_outputs(int in, int out, int k, int stride, int pad) {
  const int first = pad - k;       // i * stride >= first
  const int last = in - 1 + pad - k;  // i * stride <= last
  if (last < 0) return {0, 0};
  const int lo = first <= 0 ? 0 : (first + stride - 1) / stride;
  const int hi = std::min(out, last / stride + 1);
  return {lo, std::max(lo, hi)};
}

// ---------------------------------------------------------------------------
// Blocked GEMM.
//
// C (m x n) += A * B where A is addressed through explicit strides
// (a_rs between rows, a_ks between k steps) so the same driver serves both
// matmul (A row-major, a_rs = k, a_ks = 1) and matmul_tn (A stored
// transposed, a_rs = 1, a_ks = m). B is row-major k x n.
//
// Loop nest: rows are split across threads (disjoint C rows, so no
// synchronisation); within a row chunk we block columns by kNC (B panel in
// L2), k by kKC (A panel in L1), and run a kMR x kNR register tile in the
// middle. For every C element the k loop advances strictly ascending across
// blocks, which keeps the float summation order identical to the naive
// kernel — blocked results are bit-identical to a naive ikj loop and
// invariant to the thread count.
// ---------------------------------------------------------------------------

constexpr int kMR = 6;    // register tile rows
constexpr int kNR = 16;   // register tile columns (two AVX2 vectors)
constexpr int kKC = 256;  // k block: A panel kMR*kKC floats stays in L1
constexpr int kNC = 512;  // column block: B panel kKC*kNC floats stays in L2

// The register tile, up to kMR x kNR, lives in src/simd/ (gemm_tile):
// scalar reference in kernels_scalar.cpp, AVX2 replay pinned bitwise against
// it. It runs full and edge tiles alike, so an element's rounding does not
// depend on where the tile grid cuts it. gemm_strided resolves the active
// backend once, outside the parallel region, so a bad DCSR_SIMD surfaces as
// an exception on the calling thread.

void gemm_strided(const float* A, std::size_t a_rs, std::size_t a_ks,
                  const float* B, std::size_t ldb, float* C, std::size_t ldc,
                  int m, int n, int k, const float* row_bias = nullptr,
                  bool fuse_relu = false) {
  if (m == 0 || n == 0 || k == 0) return;
  const simd::KernelTable& kt = simd::active();
  // The innermost kernel entry: a warm GEMM touches only its operands.
  HotPathGuard alloc_guard("tensor/ops.cpp:gemm_strided");
  // Size row chunks so each task carries at least ~1 MFLOP of work.
  const std::int64_t flops_per_row = 2LL * k * n;
  const std::int64_t grain =
      std::max<std::int64_t>(kMR, (1LL << 20) / std::max<std::int64_t>(1, flops_per_row) + 1);
  // Each chunk owns C rows [ilo, ihi): from the start of row ilo to the last
  // written element of row ihi-1 (rows are ldc apart but only n wide).
  const auto claim = [&](std::int64_t ilo, std::int64_t ihi) {
    return span_of(C + static_cast<std::size_t>(ilo) * ldc,
                   static_cast<std::size_t>(ihi - ilo - 1) * ldc +
                       static_cast<std::size_t>(n));
  };
  parallel_for_writes(0, m, grain, claim, [&](std::int64_t ilo, std::int64_t ihi) {
    for (int jc = 0; jc < n; jc += kNC) {
      const int jn = std::min(kNC, n - jc);
      for (int kc = 0; kc < k; kc += kKC) {
        const int kn = std::min(kKC, k - kc);
        const float* Bp = B + static_cast<std::size_t>(kc) * ldb + jc;
        for (std::int64_t i = ilo; i < ihi; i += kMR) {
          const int mr = static_cast<int>(std::min<std::int64_t>(kMR, ihi - i));
          const float* Ap = A + static_cast<std::size_t>(i) * a_rs +
                            static_cast<std::size_t>(kc) * a_ks;
          float* Cp = C + static_cast<std::size_t>(i) * ldc + jc;
          for (int j = 0; j < jn; j += kNR)
            kt.gemm_tile(Ap, a_rs, a_ks, Bp + j, ldb, Cp + j, ldc, mr,
                         std::min(kNR, jn - j), kn);
        }
      }
      // Fused epilogue: once the kc loop above has finished, every element
      // of the [ilo, ihi) x [jc, jc+jn) panel holds its fully accumulated
      // dot product, so adding the bias here (and clamping afterwards) is
      // the same float-op sequence as a separate bias pass followed by a
      // separate ReLU — fused output is bit-identical to the unfused one.
      // The panel sits inside this chunk's claimed rows, so no new claims.
      if (row_bias != nullptr || fuse_relu) {
        for (std::int64_t i = ilo; i < ihi; ++i) {
          float* Cp = C + static_cast<std::size_t>(i) * ldc + jc;
          if (row_bias != nullptr) {
            const float b = row_bias[i];
            for (int j = 0; j < jn; ++j) Cp[j] += b;
          }
          if (fuse_relu)
            for (int j = 0; j < jn; ++j) Cp[j] = Cp[j] > 0.0f ? Cp[j] : 0.0f;
        }
      }
    }
  }, "tensor/ops.cpp:gemm_strided");
}

// Dot-product tile for matmul_nt: kDR rows of A against kDC rows of B, each
// accumulated over kDL independent lanes along k so the compiler can
// vectorise without reassociating a single serial sum.
constexpr int kDR = 4;  // A rows per tile
constexpr int kDC = 2;  // B rows per tile
constexpr int kDL = 8;  // accumulation lanes (one AVX2 vector)

void dot_tile(const float* A, std::size_t lda, const float* B, std::size_t ldb,
              float* C, std::size_t ldc, int mr, int nr, int k) {
  float acc[kDR][kDC][kDL] = {};
  int kk = 0;
  for (; kk + kDL <= k; kk += kDL) {
    for (int r = 0; r < mr; ++r) {
      const float* a = A + static_cast<std::size_t>(r) * lda + kk;
      for (int c = 0; c < nr; ++c) {
        const float* b = B + static_cast<std::size_t>(c) * ldb + kk;
        for (int l = 0; l < kDL; ++l) acc[r][c][l] += a[l] * b[l];
      }
    }
  }
  for (int r = 0; r < mr; ++r) {
    for (int c = 0; c < nr; ++c) {
      float s = 0.0f;
      for (int l = 0; l < kDL; ++l) s += acc[r][c][l];
      const float* a = A + static_cast<std::size_t>(r) * lda;
      const float* b = B + static_cast<std::size_t>(c) * ldb;
      for (int t = kk; t < k; ++t) s += a[t] * b[t];
      C[static_cast<std::size_t>(r) * ldc + c] = s;
    }
  }
}

}  // namespace

ConstMat::ConstMat(const Tensor& t) {
  require_2d(t, "ConstMat");
  data = t.data();
  rows = t.dim(0);
  cols = t.dim(1);
}

MutMat::MutMat(Tensor& t) {
  require_2d(t, "MutMat");
  data = t.data();
  rows = t.dim(0);
  cols = t.dim(1);
}

void matmul_into(ConstMat a, ConstMat b, Tensor& out) {
  const int m = a.rows, k = a.cols, n = b.cols;
  if (b.rows != k) throw std::invalid_argument("matmul_into: inner dim mismatch");
  out.reset({m, n});
  std::fill(out.data(), out.data() + out.size(), 0.0f);
  gemm_strided(a.data, static_cast<std::size_t>(k), 1, b.data,
               static_cast<std::size_t>(n), out.data(),
               static_cast<std::size_t>(n), m, n, k);
}

void matmul_tn_into(ConstMat a, ConstMat b, Tensor& out) {
  const int k = a.rows, m = a.cols, n = b.cols;
  if (b.rows != k) throw std::invalid_argument("matmul_tn_into: inner dim mismatch");
  out.reset({m, n});
  std::fill(out.data(), out.data() + out.size(), 0.0f);
  gemm_strided(a.data, 1, static_cast<std::size_t>(m), b.data,
               static_cast<std::size_t>(n), out.data(),
               static_cast<std::size_t>(n), m, n, k);
}

void matmul_bias_into(ConstMat a, ConstMat b, const float* row_bias, MutMat out,
                      bool fuse_relu) {
  const int m = a.rows, k = a.cols, n = b.cols;
  if (b.rows != k)
    throw std::invalid_argument("matmul_bias_into: inner dim mismatch");
  if (out.rows != m || out.cols != n)
    throw std::invalid_argument("matmul_bias_into: output shape mismatch");
  std::fill(out.data, out.data + static_cast<std::size_t>(m) * n, 0.0f);
  gemm_strided(a.data, static_cast<std::size_t>(k), 1, b.data,
               static_cast<std::size_t>(n), out.data,
               static_cast<std::size_t>(n), m, n, k, row_bias, fuse_relu);
}

void matmul_nt_into(ConstMat a, ConstMat b, Tensor& out) {
  const int m = a.rows, k = a.cols, n = b.rows;
  if (b.cols != k) throw std::invalid_argument("matmul_nt_into: inner dim mismatch");
  out.reset({m, n});
  const float* A = a.data;
  const float* B = b.data;
  float* C = out.data();
  const std::int64_t flops_per_row = 2LL * k * n;
  const std::int64_t grain =
      std::max<std::int64_t>(kDR, (1LL << 20) / std::max<std::int64_t>(1, flops_per_row) + 1);
  // Each chunk owns the dense C rows [ilo, ihi).
  const auto claim = [&](std::int64_t ilo, std::int64_t ihi) {
    return span_of(C + static_cast<std::size_t>(ilo) * n,
                   static_cast<std::size_t>(ihi - ilo) * n);
  };
  parallel_for_writes(0, m, grain, claim, [&](std::int64_t ilo, std::int64_t ihi) {
    for (std::int64_t i = ilo; i < ihi; i += kDR) {
      const int mr = static_cast<int>(std::min<std::int64_t>(kDR, ihi - i));
      const float* Ap = A + static_cast<std::size_t>(i) * k;
      float* Cp = C + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; j += kDC) {
        const int nr = std::min(kDC, n - j);
        dot_tile(Ap, static_cast<std::size_t>(k),
                 B + static_cast<std::size_t>(j) * k, static_cast<std::size_t>(k),
                 Cp + j, static_cast<std::size_t>(n), mr, nr, k);
      }
    }
  }, "tensor/ops.cpp:matmul_nt");
}

int conv_out_size(int in, int kernel, int stride, int pad) noexcept {
  return (in + 2 * pad - kernel) / stride + 1;
}

int conv_out_size_checked(int in, int kernel, int stride, int pad,
                          const char* what) {
  const auto bad = [&](const char* reason) {
    AllocAllowScope allow;  // error path may run under a hot-path guard
    std::ostringstream os;
    os << what << ": " << reason << " (in=" << in << ", kernel=" << kernel
       << ", stride=" << stride << ", pad=" << pad << ")";
    throw std::invalid_argument(os.str());
  };
  if (stride <= 0) bad("non-positive stride");
  if (kernel <= 0) bad("non-positive kernel");
  const int out = conv_out_size(in, kernel, stride, pad);
  if (out <= 0) bad("non-positive conv output size");
  return out;
}

void im2col_into(const Tensor& input, int n, int kernel, int stride, int pad,
                 Tensor& cols) {
  if (input.rank() != 4) {
    AllocAllowScope allow;  // error path may run under a hot-path guard
    throw std::invalid_argument("im2col: expected NCHW input");
  }
  require_item(input, n, "im2col_into");
  const int C = input.dim(1), H = input.dim(2), W = input.dim(3);
  const int oh = conv_out_size(H, kernel, stride, pad);
  const int ow = conv_out_size(W, kernel, stride, pad);
  const int rows = C * kernel * kernel;
  if (cols.rank() != 2 || cols.dim(0) != rows || cols.dim(1) != oh * ow) {
    AllocAllowScope allow;
    throw std::invalid_argument("im2col_into: column shape mismatch");
  }
  float* out = cols.data();
  const float* in = input.data() +
                    static_cast<std::size_t>(n) * C * H * W;
  const simd::KernelTable& kt = simd::active();
  HotPathGuard alloc_guard("tensor/ops.cpp:im2col_into");
  // Each output row is filled from a read-only input, so rows tile across
  // the pool with no shared writes; inference convs (batch 1) get their
  // parallelism here rather than from the batch axis. Each chunk claims the
  // contiguous block of column-matrix rows [lo, hi).
  const auto claim = [&](std::int64_t lo, std::int64_t hi) {
    return span_of(out + static_cast<std::size_t>(lo) * oh * ow,
                   static_cast<std::size_t>(hi - lo) * oh * ow);
  };
  parallel_for_writes(0, rows, 1, claim, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t row = lo; row < hi; ++row) {
      const int c = static_cast<int>(row) / (kernel * kernel);
      const int ky = (static_cast<int>(row) / kernel) % kernel;
      const int kx = static_cast<int>(row) % kernel;
      float* dst = out + static_cast<std::size_t>(row) * oh * ow;
      kt.im2col_row(in + static_cast<std::size_t>(c) * H * W, H, W, oh, ow,
                    stride, pad, ky, kx, dst);
    }
  }, "tensor/ops.cpp:im2col_into");
}

void conv3x3_into(const Tensor& input, int n, ConstMat weight,
                  const float* bias, bool relu, Tensor& padded, float* out) {
  if (input.rank() != 4) {
    AllocAllowScope allow;  // error path may run under a hot-path guard
    throw std::invalid_argument("conv3x3_into: expected NCHW input");
  }
  require_item(input, n, "conv3x3_into");
  const int C = input.dim(1), H = input.dim(2), W = input.dim(3);
  if (weight.cols != 9 * C) {
    AllocAllowScope allow;
    throw std::invalid_argument("conv3x3_into: weight has " +
                                std::to_string(weight.cols) +
                                " columns, expected 9 x " + std::to_string(C));
  }
  const simd::KernelTable& kt = simd::active();
  HotPathGuard alloc_guard("tensor/ops.cpp:conv3x3_into");
  pad_item(input, n, padded);
  kt.conv3x3(padded.data(), static_cast<std::size_t>(W) + 2, C, H, W,
             weight.data, bias, weight.rows, relu, 0, H, out);
}

void conv3x3_weight_grad_add(const Tensor& padded, const Tensor& grad_out,
                             int n, Tensor& weight_grad) {
  require_nchw_item(grad_out, n, "conv3x3_weight_grad_add");
  const int O = grad_out.dim(1), H = grad_out.dim(2), W = grad_out.dim(3);
  const int C = padded.rank() == 3 ? padded.dim(0) : 0;
  if (padded.rank() != 3 || padded.dim(1) != H + 2 || padded.dim(2) != W + 2 ||
      weight_grad.rank() != 2 || weight_grad.dim(0) != O ||
      weight_grad.dim(1) != 9 * C)
    shape_error("conv3x3_weight_grad_add", "padded input " +
                                               padded.shape().str() +
                                               " and weight gradient " +
                                               weight_grad.shape().str() +
                                               " do not fit gradient " +
                                               grad_out.shape().str());
  const simd::KernelTable& kt = simd::active();
  const std::size_t plane = static_cast<std::size_t>(H) * W;
  const std::size_t w_rs = static_cast<std::size_t>(9) * C;
  const float* dy = item_data(grad_out, n);
  float* dwt = weight_grad.data();
  // Chunks own blocks of 4 weight rows (output channels), disjoint rows of
  // weight_grad that each sum over the whole image.
  const auto row = [O](std::int64_t block) {
    return static_cast<std::size_t>(std::min<std::int64_t>(4 * block, O));
  };
  parallel_for_writes(
      0, (O + 3) / 4, conv_block_grain(8LL * w_rs * plane),
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(dwt + row(lo) * w_rs, (row(hi) - row(lo)) * w_rs);
      },
      [&](std::int64_t lo, std::int64_t hi) {
        kt.conv3x3_dw(padded.data(), static_cast<std::size_t>(W) + 2, C, H, W,
                      dy + row(lo) * plane, static_cast<int>(row(hi) - row(lo)),
                      dwt + row(lo) * w_rs);
      },
      "tensor/ops.cpp:conv3x3_weight_grad_add");
}

void conv3x3_data_grad_into(ConstMat weight, const Tensor& grad_out, int n,
                            Tensor& padded_grad, Tensor& grad_in) {
  require_nchw_item(grad_out, n, "conv3x3_data_grad_into");
  const int O = grad_out.dim(1), H = grad_out.dim(2), W = grad_out.dim(3);
  const int C = weight.cols / 9;
  if (weight.rows != O || weight.cols != 9 * C || grad_in.rank() != 4 ||
      grad_in.dim(1) != C || grad_in.dim(2) != H || grad_in.dim(3) != W ||
      n >= grad_in.dim(0))
    shape_error("conv3x3_data_grad_into",
                "weight " + std::to_string(weight.rows) + "x" +
                    std::to_string(weight.cols) + " and input gradient " +
                    grad_in.shape().str() + " do not fit gradient " +
                    grad_out.shape().str() + " item " + std::to_string(n));
  const simd::KernelTable& kt = simd::active();
  pad_item(grad_out, n, padded_grad);
  const std::size_t plane = static_cast<std::size_t>(H) * W;
  float* dx = item_data(grad_in, n);
  // Chunks own blocks of 4 contiguous input-gradient planes.
  const auto chan = [C](std::int64_t block) {
    return static_cast<int>(std::min<std::int64_t>(4 * block, C));
  };
  parallel_for_writes(
      0, (C + 3) / 4, conv_block_grain(72LL * O * plane),
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(dx + chan(lo) * plane,
                       static_cast<std::size_t>(chan(hi) - chan(lo)) * plane);
      },
      [&](std::int64_t lo, std::int64_t hi) {
        kt.conv3x3_dx(padded_grad.data(), static_cast<std::size_t>(W) + 2, O,
                      H, W, weight.data, C, chan(lo), chan(hi), dx);
      },
      "tensor/ops.cpp:conv3x3_data_grad_into");
}

void bias_grad_add(const Tensor& grad_out, int n, Tensor& bias_grad) {
  require_nchw_item(grad_out, n, "bias_grad_add");
  const int O = grad_out.dim(1);
  if (bias_grad.size() != static_cast<std::size_t>(O))
    shape_error("bias_grad_add", "bias gradient " + bias_grad.shape().str() +
                                     " does not fit gradient " +
                                     grad_out.shape().str());
  simd::active().row_sum(item_data(grad_out, n), O,
                         grad_out.dim(2) * grad_out.dim(3), bias_grad.data());
}

void col2im_add(const Tensor& cols, Tensor& out, int n, int kernel, int stride,
                int pad) {
  if (out.rank() != 4) {
    AllocAllowScope allow;  // error path may run under a hot-path guard
    throw std::invalid_argument("col2im_add: expected NCHW output");
  }
  require_item(out, n, "col2im_add");
  const int C = out.dim(1), H = out.dim(2), W = out.dim(3);
  const int oh = conv_out_size(H, kernel, stride, pad);
  const int ow = conv_out_size(W, kernel, stride, pad);
  if (cols.rank() != 2 || cols.dim(0) != C * kernel * kernel ||
      cols.dim(1) != oh * ow) {
    AllocAllowScope allow;
    throw std::invalid_argument("col2im_add: column shape mismatch");
  }
  // Row by row in (c, ky, kx, y, x) order, so every output element receives
  // its contributions in the same sequence as a per-element scatter. The
  // in-bounds x range of each (c, ky, kx) row is hoisted, leaving a
  // branch-free add loop over raw rows (contiguous at stride 1).
  const float* src = cols.data();
  float* item = out.data() + static_cast<std::size_t>(n) * C * H * W;
  for (int c = 0; c < C; ++c) {
    float* plane = item + static_cast<std::size_t>(c) * H * W;
    for (int ky = 0; ky < kernel; ++ky) {
      const auto [y_lo, y_hi] = valid_outputs(H, oh, ky, stride, pad);
      for (int kx = 0; kx < kernel; ++kx) {
        const auto [x_lo, x_hi] = valid_outputs(W, ow, kx, stride, pad);
        const int row = (c * kernel + ky) * kernel + kx;
        const float* s = src + static_cast<std::size_t>(row) * oh * ow;
        const int count = x_hi - x_lo;
        for (int y = y_lo; y < y_hi; ++y) {
          const float* s_row = s + static_cast<std::size_t>(y) * ow + x_lo;
          float* d_row = plane +
                         static_cast<std::size_t>(y * stride + ky - pad) * W +
                         (x_lo * stride + kx - pad);
          if (stride == 1) {
            for (int i = 0; i < count; ++i) d_row[i] += s_row[i];
          } else {
            for (int i = 0; i < count; ++i) d_row[i * stride] += s_row[i];
          }
        }
      }
    }
  }
}

}  // namespace dcsr

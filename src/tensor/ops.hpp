#pragma once

#include "tensor/tensor.hpp"

namespace dcsr {

/// Non-owning view of a row-major 2-D matrix. The `*_into` GEMM entry points
/// accept views so a kernel can multiply a slice of a larger buffer (e.g.
/// one batch item's plane block inside an NCHW tensor) without first copying
/// it into a fresh Tensor. Implicitly constructible from a rank-2 Tensor.
struct ConstMat {
  const float* data = nullptr;
  int rows = 0;
  int cols = 0;

  ConstMat() = default;
  ConstMat(const float* d, int r, int c) noexcept : data(d), rows(r), cols(c) {}
  ConstMat(const Tensor& t);  // throws std::invalid_argument unless rank 2
};

/// Mutable counterpart of ConstMat for caller-owned output memory.
struct MutMat {
  float* data = nullptr;
  int rows = 0;
  int cols = 0;

  MutMat() = default;
  MutMat(float* d, int r, int c) noexcept : data(d), rows(r), cols(c) {}
  MutMat(Tensor& t);  // throws std::invalid_argument unless rank 2
};

/// Matrix product (m x k) * (k x n) -> (m x n), written into `out`, which is
/// reshaped in place — a warm caller-owned buffer (typically a Workspace
/// checkout) is reused instead of reallocated. `out` must not alias either
/// input.
///
/// Cache-blocked (MC/KC/NC) with a register-tiled inner kernel, parallelised
/// over row blocks on the default pool. Per output element the k-summation
/// order is fixed and ascending, so results are bit-identical to the naive
/// reference (tests/matmul_naive.hpp) and invariant to the thread count.
/// matmul_tn_into takes the first operand transposed, aT(k x m) * b(k x n),
/// and is blocked and parallelised the same way.
void matmul_into(ConstMat a, ConstMat b, Tensor& out);
void matmul_tn_into(ConstMat a, ConstMat b, Tensor& out);

/// Matrix product with the second operand transposed, a(m x k) * bT(n x k),
/// into `out` (reshaped in place; must not alias either input).
/// Lane-parallel dot-product kernel; deterministic for a fixed shape but the
/// accumulation order differs from the naive reference (compare with a
/// tolerance, not bitwise).
void matmul_nt_into(ConstMat a, ConstMat b, Tensor& out);

/// Conv GEMM with a fused bias (and optionally ReLU) epilogue, written into
/// caller memory: out = a * b, then out[r][j] += row_bias[r] for every
/// element, then (if fuse_relu) out = max(0, out). The epilogue runs only
/// after an element's k-summation has fully accumulated, so the float-op
/// order is exactly "matmul, then a separate bias pass, then a separate
/// ReLU pass" — fused results are bit-identical to the unfused sequence.
/// `row_bias` (length a.rows) may be null for a pure product. `out` must be
/// pre-sized to a.rows x b.cols by the caller (it is a slice of a larger
/// tensor in the Conv2d hot path).
void matmul_bias_into(ConstMat a, ConstMat b, const float* row_bias, MutMat out,
                      bool fuse_relu = false);

/// im2col for a single image (C x H x W laid out as the n-th item of an NCHW
/// tensor): extracts k x k patches with the given stride and zero padding
/// into the caller-owned (C*k*k) x (outH*outW) matrix `cols`, so loops reuse
/// one scratch allocation across batch items. This is the workhorse behind
/// Conv2d. Parallelised over the C*k*k output rows (each row is a disjoint
/// slice of the column matrix, so the values are thread-count invariant);
/// inside an outer parallel region the tiling degrades to serial as usual.
/// Throws std::invalid_argument unless `input` is NCHW, 0 <= n < N and
/// `cols` already has that shape.
void im2col_into(const Tensor& input, int n, int kernel, int stride, int pad,
                 Tensor& cols);

/// Direct 3x3, stride-1, pad-1 convolution of the n-th item of an NCHW
/// tensor (C x H x W) into caller memory: `out` receives weight.rows planes
/// of H x W floats, out = weight * im2col(item) + bias, clamped at zero if
/// `relu`. `weight` is out_channels x 9C in im2col row order and `bias` has
/// out_channels floats. Bit-identical to im2col_into followed by
/// matmul_bias_into(weight, cols, bias, out, relu), without the 9x column
/// matrix: `padded` is caller scratch (typically a Workspace checkout),
/// reshaped in place to C x (H+2) x (W+2) and filled with the item inside a
/// zero border; the simd conv3x3 kernel then reads it. Runs on the calling
/// thread. Throws std::invalid_argument unless `input` is NCHW,
/// 0 <= n < N and `weight` has 9C columns.
void conv3x3_into(const Tensor& input, int n, ConstMat weight,
                  const float* bias, bool relu, Tensor& padded, float* out);

/// Backward of conv3x3_into for the n-th item of the NCHW output gradient
/// `grad_out` (N x O x H x W). Each writes or adds exactly the floats of the
/// im2col + GEMM backward it replaces, without a column matrix:
///
/// conv3x3_weight_grad_add: weight_grad (O x 9C) += grad_out[n] *
/// im2col(item)^T, the sums in matmul_nt_into's order, then Tensor::add_'s.
/// `padded` is the item's zero-bordered copy, C x (H+2) x (W+2), as
/// conv3x3_into leaves it.
///
/// conv3x3_data_grad_into: item n of grad_in (N x C x H x W, pre-shaped) =
/// col2im_add(matmul_tn(weight, grad_out[n])) into a zeroed item, for
/// finite weights. `padded_grad` is caller scratch, reshaped in place to
/// O x (H+2) x (W+2) and filled with the gradient item inside a zero border.
///
/// Both split their output's 4-channel blocks across the default pool when
/// a block carries about 1 MFLOP or more (inline inside another region),
/// with the same bits at any thread count, and throw std::invalid_argument
/// on any shape mismatch or a bad n before writing anything.
void conv3x3_weight_grad_add(const Tensor& padded, const Tensor& grad_out,
                             int n, Tensor& weight_grad);
void conv3x3_data_grad_into(ConstMat weight, const Tensor& grad_out, int n,
                            Tensor& padded_grad, Tensor& grad_in);

/// Bias gradient of a conv: bias_grad[o] += the serial sum, from +0, of
/// channel o's plane in item n of the NCHW `grad_out`. Throws
/// std::invalid_argument unless bias_grad has one float per channel and
/// 0 <= n < N, before writing.
void bias_grad_add(const Tensor& grad_out, int n, Tensor& bias_grad);

/// Adjoint of im2col: scatter-adds columns back into a C x H x W gradient
/// image (written into the n-th item of `out`, which must be pre-shaped).
/// Adds row by row in (c, ky, kx, y, x) order, so each output element sums
/// its contributions in a fixed sequence. Throws std::invalid_argument
/// unless `out` is NCHW, 0 <= n < N and `cols` is the matching 2-D matrix.
void col2im_add(const Tensor& cols, Tensor& out, int n, int kernel, int stride,
                int pad);

/// Output spatial size of a convolution: floor((in + 2*pad - kernel)/stride)+1.
int conv_out_size(int in, int kernel, int stride, int pad) noexcept;

/// conv_out_size that rejects degenerate geometry: a non-positive output
/// extent throws std::invalid_argument naming `what` and the offending
/// in/kernel/stride/pad combination instead of silently producing a 0- or
/// negative-sized tensor downstream.
int conv_out_size_checked(int in, int kernel, int stride, int pad,
                          const char* what);

}  // namespace dcsr

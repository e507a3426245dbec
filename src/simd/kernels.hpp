#pragma once

#include <cstddef>
#include <cstdint>

namespace dcsr::simd {

/// Kernel backends. kScalar is the oracle; kAvx2 overrides every family;
/// kAvx512 is a tier on top of kAvx2 whose conv3x3 and conv3x3_dx are the
/// zmm instantiation of conv3x3_tiles.hpp (the AVX2 ones are its ymm
/// instantiation) and whose every other family is its AVX2 kernel.
enum class Backend : int {
  kScalar = 0,
  // No SSE2 or NEON backend exists and neither is ever supported:
  // host_supports() is false and parse_backend() throws on their names. The
  // enumerators stay only so code outside the library that lists backends
  // keeps compiling.
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
  kAvx512 = 4,
};

/// Kernel families, for per-family provenance in report(). A backend may
/// override any subset; unoverridden families inherit the scalar oracle.
enum Family : int {
  kFamDct = 0,
  kFamIdct,
  kFamDequantIdct,
  kFamQuant,
  kFamDequant,
  kFamGemm,
  kFamIm2col,
  kFamConv3x3,
  kFamConv3x3Dw,
  kFamConv3x3Dx,
  kFamRowSum,
  kFamYuvToRgb,
  kFamRgbToYuv,
  kFamChromaBox,
  kNumFamilies,
};
const char* family_name(int family) noexcept;

/// Function-pointer table for the dispatched inner loops. Raw-pointer
/// signatures only: src/simd sits below tensor/codec/image in the layering
/// and must not see their types. Callers keep ownership of all buffers and
/// guarantee the documented extents; kernels never allocate.
///
/// Bit-exactness contract per family (enforced by tests/simd_test.cpp):
/// every entry must produce byte-identical output to the scalar oracle for
/// all finite inputs in the documented domain. For the float-accumulating
/// families (dct/idct/dequant_idct/gemm/conv3x3/conv3x3_dx/yuv) the oracle is
/// written as explicit std::fma chains in ascending index order and compiled
/// without contraction, so overriding backends must use FMA intrinsics at
/// the same steps and in the same order, and round every other multiply.
/// conv3x3_dw fuses nothing (each product rounds before its add) and
/// row_sum only adds.
struct KernelTable {
  // 8x8 forward / inverse DCT on raster-order 64-float blocks. in/out must
  // not alias.
  void (*dct8x8)(const float* in, float* out);
  void (*idct8x8)(const float* in, float* out);

  // Fused dequantise + inverse DCT: out = idct8x8(levels[i] * steps[i]).
  // The decoder's reconstruct_block hot loop.
  void (*dequant_idct8x8)(const std::int32_t* levels, const float* steps,
                          float* out);

  // levels[i] = lround(coeffs[i] / steps[i]) with exact lround (round half
  // away from zero) semantics; |coeffs[i]/steps[i]| must stay < 2^31.
  void (*quantize_block)(const float* coeffs, const float* steps,
                         std::int32_t* levels);
  // coeffs[i] = float(levels[i]) * steps[i].
  void (*dequantize_block)(const std::int32_t* levels, const float* steps,
                           float* coeffs);

  // GEMM register tile: C (mr rows x nr cols, row stride ldc) +=
  // A-panel (mr x kn, element stride a_ks, row stride a_rs) * B-panel
  // (kn x nr, row stride ldb), 1 <= mr <= 6, 1 <= nr <= 16. Every tile of
  // gemm_strided in tensor/ops.cpp, full (6x16) and edge alike, so each C
  // element gets the same fma chain wherever the tile grid cuts it. Reads
  // and writes only the mr x nr block.
  void (*gemm_tile)(const float* a, std::size_t a_rs, std::size_t a_ks,
                    const float* b, std::size_t ldb, float* c, std::size_t ldc,
                    int mr, int nr, int kn);

  // One im2col output row: dst[y*ow + x] = src[sy*w + sx] where
  // sy = y*stride + ky - pad, sx = x*stride + kx - pad, else 0 when out of
  // bounds. src is one (n, c) input plane of extent h x w; dst has
  // oh*ow floats.
  void (*im2col_row)(const float* src, int h, int w, int oh, int ow,
                     int stride, int pad, int ky, int kx, float* dst);

  // Direct 3x3, stride-1, pad-1 convolution of one image, the inference
  // path of nn::Conv2d for that geometry. `in` holds c zero-bordered
  // planes of (h+2) rows x in_rs floats (in_rs >= w+2, plane stride
  // (h+2)*in_rs): padded row r, column s is input pixel (r-1, s-1), and the
  // border rows and columns are zero. `wt` is o rows of 9c weights in
  // (c, ky, kx) order, the im2col row order; `bias` has o floats. Writes
  // rows [y0, y1) (0 <= y0 <= y1 <= h) of each of the o output planes of
  // `out` (h x w floats each, contiguous) and nothing else. Each output
  // starts at +0, takes one fma per (c, ky, kx) term in ascending order,
  // border taps included, then adds its bias and, if relu, becomes
  // v > 0 ? v : 0. That is the float-op sequence of im2col_row + gemm_tile
  // + matmul_bias_into's epilogue, so the two paths agree bitwise.
  void (*conv3x3)(const float* in, std::size_t in_rs, int c, int h, int w,
                  const float* wt, const float* bias, int o, bool relu,
                  int y0, int y1, float* out);

  // Weight gradient of that convolution for one image, added into `dwt`
  // (o rows of 9c, the layout of `wt`). `in` is the zero-bordered input as
  // conv3x3 reads it; `dy` holds o planes of h x w output gradients,
  // contiguous. Each (k, ci, ky, kx) entry is the dot product of dy plane k
  // with the tap's implicit column col[i] = in(ci, y + ky, x + kx) over the
  // flattened output index i = y*w + x, in the order of the im2col + GEMM
  // path's dot tile: eight lane sums from +0, lane l taking
  // acc_l = acc_l + dy[i] * col[i] (the product rounds) for i = l, l + 8,
  // ... below n8 = h*w - h*w % 8; then s = 0 + acc_0 + ... + acc_7 in
  // series, then s = s + dy[i] * col[i] for the n8 <= i < h*w tail, then
  // dwt += s. When w % 8 != 0, some lane chunks span two or more image
  // rows.
  void (*conv3x3_dw)(const float* in, std::size_t in_rs, int c, int h, int w,
                     const float* dy, int o, float* dwt);

  // Input gradient of that convolution for one image. `dy` holds o
  // zero-bordered planes of (h+2) rows x dy_rs floats (dy_rs >= w+2, plane
  // stride (h+2)*dy_rs): padded row r, column s is output gradient
  // (r-1, s-1). `wt` is the forward weight, o rows of 9c. Writes planes
  // [c0, c1) (0 <= c0 <= c1 <= c) of the c planes of `dx` (h x w floats
  // each, contiguous) and nothing else. Each dx element starts at +0 and,
  // for the taps (ky, kx) in ascending order, adds t = one fma chain from
  // +0 over k = 0..o-1 of wt[k][ci, ky, kx] * dy(k, y + 1 - ky, x + 1 - kx):
  // the GEMM of the transposed weight with dy followed by col2im's per-tap
  // adds. A tap that falls on the zero border has t = +0 for finite
  // weights, and adding +0 is exact because the sum starts at +0 and so is
  // never -0.
  void (*conv3x3_dx)(const float* dy, std::size_t dy_rs, int o, int h, int w,
                     const float* wt, int c, int c0, int c1, float* dx);

  // Row sums added into `out`: for each of `rows` rows of n contiguous
  // floats (row stride n), s = 0 + x[0] + x[1] + ... + x[n-1] in series,
  // then out[r] += s. Conv2d's bias gradient.
  void (*row_sum)(const float* x, int rows, int n, float* out);

  // One output row of YUV420 -> RGB with bilinear chroma upsampling.
  // yrow: w lumas; u0/u1 (v0/v1): the two vertically-neighbouring chroma
  // rows already selected and clamped by the caller, cw = (w+1)/2 samples
  // each; fy: vertical interpolation weight toward u1/v1.
  void (*yuv_to_rgb_row)(const float* yrow, const float* u0, const float* u1,
                         const float* v0, const float* v1, float fy, int w,
                         int cw, float* r, float* g, float* b);

  // One row of RGB -> luma + full-resolution chroma offsets
  // (uf/vf in [0,1], 0.5 = neutral), w pixels.
  void (*rgb_to_yuv_row)(const float* r, const float* g, const float* b,
                         int w, float* yrow, float* uf, float* vf);
  // 2x2 box downsample of two full-resolution chroma rows (each w floats,
  // w even) into one cw = w/2 row: out[x] = 0.25 * (f0[2x] + f0[2x+1] +
  // f1[2x] + f1[2x+1]) in the scalar oracle's association order.
  void (*chroma_box_row)(const float* f0, const float* f1, int w, float* out);

  /// Backend this table dispatches as.
  Backend id;
  Backend origin[kNumFamilies];
};

/// The scalar reference oracle (always valid, every entry non-null).
const KernelTable& scalar_table() noexcept;

/// The AVX2 TU overlays its entries onto a copy of the scalar table. It is
/// a no-op when that TU was compiled for a different target architecture,
/// and returns whether it installed anything.
bool populate_avx2(KernelTable& t) noexcept;

/// The AVX-512 TU overlays conv3x3 and conv3x3_dx onto a copy of the AVX2
/// table, with the same no-op rule and return value as populate_avx2.
bool populate_avx512(KernelTable& t) noexcept;

/// Shared 8x8 DCT-II basis, computed once: basis()[k*8+n] = ck *
/// cos((2n+1) k pi / 16) with c0 = sqrt(1/8), ck>0 = sqrt(2/8) — identical
/// to the decoder's historical DctBasis. basis_t() is its transpose
/// (basis_t()[n*8+k] == basis()[k*8+n]), kept contiguous for kernels that
/// broadcast along the other axis.
const float* dct_basis() noexcept;
const float* dct_basis_t() noexcept;

}  // namespace dcsr::simd

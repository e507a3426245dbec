// AVX2 backend. Compiled with -mavx2 -mfma (see src/simd/CMakeLists.txt) on
// top of the tree-wide -ffp-contract=off; installed only when cpuid reports
// both avx2 and fma.
//
// Bit-exactness strategy per family:
//   - dct/idct/dequant_idct/gemm/conv3x3/conv3x3_dx/yuv: the scalar oracle
//     writes its fused steps as std::fma, so these kernels replay the same
//     chains — same terms, same ascending accumulation order — with
//     _mm256_fmadd_ps and friends, vectorised across the *independent*
//     outputs (the 8 lanes of a block row / C-tile columns / pixels of a
//     row), never across an accumulation. With contraction off, every
//     _mm256_mul_ps rounds exactly where the oracle's plain multiply does.
//   - conv3x3_dw/row_sum: the oracle's lanes (or rows) are the vector lanes,
//     each one the same serial chain of rounded multiplies and adds.
//   - quant/dequant/im2col: exact math (division + exact lround
//     emulation, single multiplies, copies).
// Edge pixels and tail lanes reuse the kernels_inline.hpp helpers — the
// same inlined code the scalar oracle runs. conv3x3 and conv3x3_dx are the
// Ymm instantiation of conv3x3_tiles.hpp, which the AVX-512 tier shares.
#include "simd/kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "simd/conv3x3_tiles.hpp"
#include "simd/kernels_inline.hpp"

namespace dcsr::simd {
namespace {

// --- 8x8 transforms ---------------------------------------------------------
//
// Both stages of the separable transforms are "for each of 8 outputs rows:
// an 8-step broadcast*row FMA chain". The broadcast always comes from the
// operand that is scalar in the lane direction; the accumulation order (the
// loop the oracle runs serially) is preserved exactly.

// One stage of a separable 8x8 transform with the 8 row vectors pinned in
// registers: out row = s[0]*r0 + s[1]*r1 + ... as the oracle's serial chain
// (first term a rounded mul, the rest vfmadd, ascending order). Hoisting
// the rows halves the stage's memory traffic — the naive spelling re-loads
// the same 8 vectors for every output row, and with 8 broadcasts per row on
// top the loop is load-port-bound, not FMA-bound.
inline __m256 chain8(const float* s, __m256 r0, __m256 r1, __m256 r2,
                     __m256 r3, __m256 r4, __m256 r5, __m256 r6, __m256 r7) {
  __m256 acc = _mm256_mul_ps(_mm256_broadcast_ss(s), r0);
  acc = _mm256_fmadd_ps(_mm256_broadcast_ss(s + 1), r1, acc);
  acc = _mm256_fmadd_ps(_mm256_broadcast_ss(s + 2), r2, acc);
  acc = _mm256_fmadd_ps(_mm256_broadcast_ss(s + 3), r3, acc);
  acc = _mm256_fmadd_ps(_mm256_broadcast_ss(s + 4), r4, acc);
  acc = _mm256_fmadd_ps(_mm256_broadcast_ss(s + 5), r5, acc);
  acc = _mm256_fmadd_ps(_mm256_broadcast_ss(s + 6), r6, acc);
  acc = _mm256_fmadd_ps(_mm256_broadcast_ss(s + 7), r7, acc);
  return acc;
}

void dct8x8_avx2(const float* in, float* out) {
  const float* m = dct_basis();     // m[k*8+n]
  const float* mt = dct_basis_t();  // mt[n*8+k]
  float tmp[64];
  // Stage 1: tmp[y*8+k] = sum_n in[y*8+n] * mt[n*8+k], vectorised over k.
  {
    const __m256 b0 = _mm256_loadu_ps(mt), b1 = _mm256_loadu_ps(mt + 8),
                 b2 = _mm256_loadu_ps(mt + 16), b3 = _mm256_loadu_ps(mt + 24),
                 b4 = _mm256_loadu_ps(mt + 32), b5 = _mm256_loadu_ps(mt + 40),
                 b6 = _mm256_loadu_ps(mt + 48), b7 = _mm256_loadu_ps(mt + 56);
    for (int y = 0; y < 8; ++y)
      _mm256_storeu_ps(tmp + y * 8,
                       chain8(in + y * 8, b0, b1, b2, b3, b4, b5, b6, b7));
  }
  // Stage 2: out[k*8+x] = sum_n m[k*8+n] * tmp[n*8+x], vectorised over x.
  {
    const __m256 t0 = _mm256_loadu_ps(tmp), t1 = _mm256_loadu_ps(tmp + 8),
                 t2 = _mm256_loadu_ps(tmp + 16), t3 = _mm256_loadu_ps(tmp + 24),
                 t4 = _mm256_loadu_ps(tmp + 32), t5 = _mm256_loadu_ps(tmp + 40),
                 t6 = _mm256_loadu_ps(tmp + 48), t7 = _mm256_loadu_ps(tmp + 56);
    for (int k = 0; k < 8; ++k)
      _mm256_storeu_ps(out + k * 8,
                       chain8(m + k * 8, t0, t1, t2, t3, t4, t5, t6, t7));
  }
}

// Shared by idct8x8 and the fused dequant+idct: both stages on an in-place
// 64-float block.
inline void idct_stages(const float* coeffs, float* out) {
  const float* m = dct_basis();
  const float* mt = dct_basis_t();
  float tmp[64];
  // Stage 1: tmp[n*8+x] = sum_k mt[n*8+k] * coeffs[k*8+x], vectorised over x.
  {
    const __m256 c0 = _mm256_loadu_ps(coeffs), c1 = _mm256_loadu_ps(coeffs + 8),
                 c2 = _mm256_loadu_ps(coeffs + 16),
                 c3 = _mm256_loadu_ps(coeffs + 24),
                 c4 = _mm256_loadu_ps(coeffs + 32),
                 c5 = _mm256_loadu_ps(coeffs + 40),
                 c6 = _mm256_loadu_ps(coeffs + 48),
                 c7 = _mm256_loadu_ps(coeffs + 56);
    for (int n = 0; n < 8; ++n)
      _mm256_storeu_ps(tmp + n * 8,
                       chain8(mt + n * 8, c0, c1, c2, c3, c4, c5, c6, c7));
  }
  // Stage 2: out[y*8+n] = sum_k tmp[y*8+k] * m[k*8+n], vectorised over n.
  {
    const __m256 b0 = _mm256_loadu_ps(m), b1 = _mm256_loadu_ps(m + 8),
                 b2 = _mm256_loadu_ps(m + 16), b3 = _mm256_loadu_ps(m + 24),
                 b4 = _mm256_loadu_ps(m + 32), b5 = _mm256_loadu_ps(m + 40),
                 b6 = _mm256_loadu_ps(m + 48), b7 = _mm256_loadu_ps(m + 56);
    for (int y = 0; y < 8; ++y)
      _mm256_storeu_ps(out + y * 8,
                       chain8(tmp + y * 8, b0, b1, b2, b3, b4, b5, b6, b7));
  }
}

void idct8x8_avx2(const float* in, float* out) { idct_stages(in, out); }

// Unaligned integer vector load/store via memcpy: same vmovdqu as the
// *_si256 intrinsics, without the pointer cast the repo lint forbids.
inline __m256i load_epi32(const std::int32_t* p) {
  __m256i v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void store_epi32(std::int32_t* p, __m256i v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

void dequant_idct8x8_avx2(const std::int32_t* levels, const float* steps,
                          float* out) {
  float coeffs[64];
  for (int i = 0; i < 64; i += 8) {
    const __m256 l = _mm256_cvtepi32_ps(load_epi32(levels + i));
    _mm256_storeu_ps(coeffs + i, _mm256_mul_ps(l, _mm256_loadu_ps(steps + i)));
  }
  idct_stages(coeffs, out);
}

// --- Quantiser --------------------------------------------------------------

// Exact lround (round half away from zero) for |t| < 2^31:
//   r = trunc(t); f = t - r (exact: f is the fraction already stored in t's
//   mantissa); |f| >= 0.5 steps r one unit away from zero.
inline __m256i lround_ps(__m256 t) {
  const __m256i r = _mm256_cvttps_epi32(t);
  const __m256 f = _mm256_sub_ps(t, _mm256_cvtepi32_ps(r));
  const __m256i up = _mm256_and_si256(
      _mm256_castps_si256(_mm256_cmp_ps(f, _mm256_set1_ps(0.5f), _CMP_GE_OQ)),
      _mm256_set1_epi32(1));
  const __m256i down = _mm256_and_si256(
      _mm256_castps_si256(_mm256_cmp_ps(f, _mm256_set1_ps(-0.5f), _CMP_LE_OQ)),
      _mm256_set1_epi32(1));
  return _mm256_sub_epi32(_mm256_add_epi32(r, up), down);
}

void quantize_block_avx2(const float* coeffs, const float* steps,
                         std::int32_t* levels) {
  for (int i = 0; i < 64; i += 8) {
    const __m256 t =
        _mm256_div_ps(_mm256_loadu_ps(coeffs + i), _mm256_loadu_ps(steps + i));
    store_epi32(levels + i, lround_ps(t));
  }
}

void dequantize_block_avx2(const std::int32_t* levels, const float* steps,
                           float* coeffs) {
  for (int i = 0; i < 64; i += 8) {
    const __m256 l = _mm256_cvtepi32_ps(load_epi32(levels + i));
    _mm256_storeu_ps(coeffs + i, _mm256_mul_ps(l, _mm256_loadu_ps(steps + i)));
  }
}

// --- GEMM register tile -----------------------------------------------------

// Same 6x16 tile as the oracle, one vfmadd per std::fma. The 12
// accumulators are named variables, not a [6][2] array: GCC fails
// scalar-replacement on the array form and emits a stack spill of every
// accumulator per k iteration, which costs ~40% of the kernel's throughput.
void gemm_tile_6x16_avx2(const float* A, std::size_t a_rs, std::size_t a_ks,
                         const float* B, std::size_t ldb, float* C,
                         std::size_t ldc, int kn) {
  __m256 c00 = _mm256_loadu_ps(C + 0 * ldc), c01 = _mm256_loadu_ps(C + 0 * ldc + 8);
  __m256 c10 = _mm256_loadu_ps(C + 1 * ldc), c11 = _mm256_loadu_ps(C + 1 * ldc + 8);
  __m256 c20 = _mm256_loadu_ps(C + 2 * ldc), c21 = _mm256_loadu_ps(C + 2 * ldc + 8);
  __m256 c30 = _mm256_loadu_ps(C + 3 * ldc), c31 = _mm256_loadu_ps(C + 3 * ldc + 8);
  __m256 c40 = _mm256_loadu_ps(C + 4 * ldc), c41 = _mm256_loadu_ps(C + 4 * ldc + 8);
  __m256 c50 = _mm256_loadu_ps(C + 5 * ldc), c51 = _mm256_loadu_ps(C + 5 * ldc + 8);
  for (int kk = 0; kk < kn; ++kk) {
    const float* b = B + static_cast<std::size_t>(kk) * ldb;
    const __m256 b0 = _mm256_loadu_ps(b), b1 = _mm256_loadu_ps(b + 8);
    const float* a = A + static_cast<std::size_t>(kk) * a_ks;
    __m256 av = _mm256_broadcast_ss(a);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(a + a_rs);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(a + 2 * a_rs);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(a + 3 * a_rs);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(a + 4 * a_rs);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(a + 5 * a_rs);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }
  _mm256_storeu_ps(C + 0 * ldc, c00);
  _mm256_storeu_ps(C + 0 * ldc + 8, c01);
  _mm256_storeu_ps(C + 1 * ldc, c10);
  _mm256_storeu_ps(C + 1 * ldc + 8, c11);
  _mm256_storeu_ps(C + 2 * ldc, c20);
  _mm256_storeu_ps(C + 2 * ldc + 8, c21);
  _mm256_storeu_ps(C + 3 * ldc, c30);
  _mm256_storeu_ps(C + 3 * ldc + 8, c31);
  _mm256_storeu_ps(C + 4 * ldc, c40);
  _mm256_storeu_ps(C + 4 * ldc + 8, c41);
  _mm256_storeu_ps(C + 5 * ldc, c50);
  _mm256_storeu_ps(C + 5 * ldc + 8, c51);
}

// Edge tile, MR <= 6 rows by nr <= 16 columns: the same chain on masked
// lanes. Masked-off lanes load as zero, feed only their own accumulators
// and are never stored. The unroll pragmas let GCC keep acc in registers.
template <int MR>
void gemm_edge_avx2(const float* A, std::size_t a_rs, std::size_t a_ks,
                    const float* B, std::size_t ldb, float* C, std::size_t ldc,
                    int nr, int kn) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i m0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(nr), lane);
  const __m256i m1 = _mm256_cmpgt_epi32(_mm256_set1_epi32(nr - 8), lane);
  __m256 acc[MR][2];
#pragma GCC unroll 6
  for (int r = 0; r < MR; ++r) {
    acc[r][0] = _mm256_maskload_ps(C + r * ldc, m0);
    acc[r][1] = _mm256_maskload_ps(C + r * ldc + 8, m1);
  }
  for (int kk = 0; kk < kn; ++kk) {
    const float* b = B + static_cast<std::size_t>(kk) * ldb;
    const __m256 b0 = _mm256_maskload_ps(b, m0);
    const __m256 b1 = _mm256_maskload_ps(b + 8, m1);
    const float* a = A + static_cast<std::size_t>(kk) * a_ks;
#pragma GCC unroll 6
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * a_rs);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < MR; ++r) {
    _mm256_maskstore_ps(C + r * ldc, m0, acc[r][0]);
    _mm256_maskstore_ps(C + r * ldc + 8, m1, acc[r][1]);
  }
}

void gemm_tile_avx2(const float* A, std::size_t a_rs, std::size_t a_ks,
                    const float* B, std::size_t ldb, float* C, std::size_t ldc,
                    int mr, int nr, int kn) {
  switch (mr) {
    case 1: return gemm_edge_avx2<1>(A, a_rs, a_ks, B, ldb, C, ldc, nr, kn);
    case 2: return gemm_edge_avx2<2>(A, a_rs, a_ks, B, ldb, C, ldc, nr, kn);
    case 3: return gemm_edge_avx2<3>(A, a_rs, a_ks, B, ldb, C, ldc, nr, kn);
    case 4: return gemm_edge_avx2<4>(A, a_rs, a_ks, B, ldb, C, ldc, nr, kn);
    case 5: return gemm_edge_avx2<5>(A, a_rs, a_ks, B, ldb, C, ldc, nr, kn);
    default:
      if (nr == 16) return gemm_tile_6x16_avx2(A, a_rs, a_ks, B, ldb, C, ldc, kn);
      return gemm_edge_avx2<6>(A, a_rs, a_ks, B, ldb, C, ldc, nr, kn);
  }
}

// --- im2col -----------------------------------------------------------------

inline void copy_row(const float* src, float* dst, int n) {
  int x = 0;
  for (; x + 8 <= n; x += 8) _mm256_storeu_ps(dst + x, _mm256_loadu_ps(src + x));
  for (; x < n; ++x) dst[x] = src[x];
}

inline void zero_row(float* dst, int n) {
  int x = 0;
  const __m256 z = _mm256_setzero_ps();
  for (; x + 8 <= n; x += 8) _mm256_storeu_ps(dst + x, z);
  for (; x < n; ++x) dst[x] = 0.0f;
}

void im2col_row_avx2(const float* src, int H, int W, int oh, int ow,
                     int stride, int pad, int ky, int kx, float* dst) {
  if (stride == 1) {
    const int x_lo = std::max(0, pad - kx);
    const int x_hi = std::min(ow, W - kx + pad);
    for (int y = 0; y < oh; ++y) {
      const int sy = y * stride + ky - pad;
      float* d = dst + y * ow;
      if (sy < 0 || sy >= H || x_lo >= x_hi) {
        zero_row(d, ow);
        continue;
      }
      zero_row(d, x_lo);
      copy_row(src + sy * W + (x_lo + kx - pad), d + x_lo, x_hi - x_lo);
      zero_row(d + x_hi, ow - x_hi);
    }
    return;
  }
  for (int y = 0; y < oh; ++y) {
    const int sy = y * stride + ky - pad;
    for (int x = 0; x < ow; ++x) {
      const int sx = x * stride + kx - pad;
      dst[y * ow + x] =
          (sy >= 0 && sy < H && sx >= 0 && sx < W) ? src[sy * W + sx] : 0.0f;
    }
  }
}

// --- Direct 3x3 convolution: weight gradient --------------------------------
//
// A block of OB <= 4 output channels and one (ci, ky) input row triple
// keeps OB x 3 (kx) accumulators of 8 lanes, lane l summing the products of
// the output pixels i = l (mod 8), as the GEMM path's dot tile does over
// the column matrix. A lane chunk i .. i+7 reads each tap's columns from
// one padded row when it lies in one output row; a chunk that crosses rows
// (only when w % 8 != 0) gathers them. Each product rounds before its add.
// The lanes then reduce in series with the scalar tail, as in the oracle.

template <int OB>
void conv3x3_dw_block(const float* in, std::size_t in_rs, std::size_t in_ps,
                      int c, int h, int w, const float* dy, float* dwt,
                      std::size_t w_rs) {
  const int n = h * w;
  const int n8 = n - n % 8;
  for (int ci = 0; ci < c; ++ci)
    for (int ky = 0; ky < 3; ++ky) {
      const float* p = in + static_cast<std::size_t>(ci) * in_ps +
                       static_cast<std::size_t>(ky) * in_rs;
      __m256 acc[OB][3];
#pragma GCC unroll 4
      for (int k = 0; k < OB; ++k)
#pragma GCC unroll 3
        for (int kx = 0; kx < 3; ++kx) acc[k][kx] = _mm256_setzero_ps();
      int y = 0, x = 0;  // output pixel of lane 0
      for (int i = 0; i < n8; i += 8) {
        __m256 col[3];
        if (x + 8 <= w) {
          const float* q = p + static_cast<std::size_t>(y) * in_rs + x;
#pragma GCC unroll 3
          for (int kx = 0; kx < 3; ++kx) col[kx] = _mm256_loadu_ps(q + kx);
        } else {
          std::int32_t off[8];
          for (int l = 0, yy = y, xx = x; l < 8; ++l) {
            off[l] = static_cast<std::int32_t>(yy * in_rs + xx);
            if (++xx == w) xx = 0, ++yy;
          }
          const __m256i idx = load_epi32(off);
#pragma GCC unroll 3
          for (int kx = 0; kx < 3; ++kx)
            col[kx] = _mm256_i32gather_ps(p + kx, idx, 4);
        }
#pragma GCC unroll 4
        for (int k = 0; k < OB; ++k) {
          const __m256 g = _mm256_loadu_ps(dy + static_cast<std::size_t>(k) * n + i);
#pragma GCC unroll 3
          for (int kx = 0; kx < 3; ++kx)
            acc[k][kx] = _mm256_add_ps(acc[k][kx], _mm256_mul_ps(g, col[kx]));
        }
        x += 8;
        while (x >= w) x -= w, ++y;
      }
      alignas(32) float lane[OB][3][8];
#pragma GCC unroll 4
      for (int k = 0; k < OB; ++k)
#pragma GCC unroll 3
        for (int kx = 0; kx < 3; ++kx) _mm256_store_ps(lane[k][kx], acc[k][kx]);
      for (int k = 0; k < OB; ++k) {
        const float* g = dy + static_cast<std::size_t>(k) * n;
        for (int kx = 0; kx < 3; ++kx) {
          float s = 0.0f;
          for (int l = 0; l < 8; ++l) s += lane[k][kx][l];
          for (int i = n8; i < n; ++i)
            s += g[i] * p[static_cast<std::size_t>(i / w) * in_rs + i % w + kx];
          dwt[static_cast<std::size_t>(k) * w_rs + ci * 9 + ky * 3 + kx] += s;
        }
      }
    }
}

void conv3x3_dw_avx2(const float* in, std::size_t in_rs, int c, int h, int w,
                     const float* dy, int o, float* dwt) {
  const std::size_t in_ps = static_cast<std::size_t>(h + 2) * in_rs;
  const std::size_t w_rs = static_cast<std::size_t>(9) * c;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  using BlockFn = void (*)(const float*, std::size_t, std::size_t, int, int,
                           int, const float*, float*, std::size_t);
  constexpr BlockFn kBlock[4] = {&conv3x3_dw_block<1>, &conv3x3_dw_block<2>,
                                 &conv3x3_dw_block<3>, &conv3x3_dw_block<4>};
  for (int k = 0; k < o; k += 4)
    kBlock[std::min(4, o - k) - 1](in, in_rs, in_ps, c, h, w, dy + k * plane,
                                   dwt + k * w_rs, w_rs);
}

// --- Row sums ---------------------------------------------------------------
//
// Eight rows at a time, one per lane: each 8 x 8 block of the rows is
// transposed so that vector j holds element i + j of every row, and the
// lane sums take those vectors in order, each row's chain in its own lane.
// A block of fewer than 8 rows repeats its last row in the spare lanes and
// drops them.

inline void transpose8(__m256 v[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  v[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  v[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  v[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  v[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  v[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  v[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  v[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  v[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

void row_sum_avx2(const float* x, int rows, int n, float* out) {
  for (int r0 = 0; r0 < rows; r0 += 8) {
    const int rb = std::min(8, rows - r0);
    const float* row[8];
    for (int j = 0; j < 8; ++j)
      row[j] = x + static_cast<std::size_t>(r0 + std::min(j, rb - 1)) * n;
    __m256 acc = _mm256_setzero_ps();
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      __m256 v[8];
#pragma GCC unroll 8
      for (int j = 0; j < 8; ++j) v[j] = _mm256_loadu_ps(row[j] + i);
      transpose8(v);
#pragma GCC unroll 8
      for (int j = 0; j < 8; ++j) acc = _mm256_add_ps(acc, v[j]);
    }
    for (; i < n; ++i)
      acc = _mm256_add_ps(acc, _mm256_setr_ps(row[0][i], row[1][i], row[2][i],
                                              row[3][i], row[4][i], row[5][i],
                                              row[6][i], row[7][i]));
    alignas(32) float s[8];
    _mm256_store_ps(s, acc);
    for (int j = 0; j < rb; ++j) out[r0 + j] += s[j];
  }
}

// --- YUV <-> RGB rows -------------------------------------------------------

void yuv_to_rgb_row_avx2(const float* yrow, const float* u0, const float* u1,
                         const float* v0, const float* v1, float fy, int W,
                         int cw, float* r, float* g, float* b) {
  // Interior pixels x in [2, W-2] have both chroma taps in bounds
  // (x0 = (x-1)/2 >= 0, x0+1 <= cw-1 for even x up to 2cw-2); a vector of 8
  // consecutive pixels starting at even x = 2k reads chroma samples
  // [k-1, k+6], expanded to left/right taps by pair-duplicating permutes.
  // fx alternates 0.75 (even x) / 0.25 (odd x). Edges and tails take the
  // shared scalar helper.
  const __m256i left_idx = _mm256_setr_epi32(0, 1, 1, 2, 2, 3, 3, 4);
  const __m256i right_idx = _mm256_setr_epi32(1, 2, 2, 3, 3, 4, 4, 5);
  const __m256 fx = _mm256_setr_ps(0.75f, 0.25f, 0.75f, 0.25f, 0.75f, 0.25f,
                                   0.75f, 0.25f);
  const __m256 one_minus_fx = _mm256_sub_ps(_mm256_set1_ps(1.0f), fx);
  const __m256 vfy = _mm256_set1_ps(fy);
  const __m256 one_minus_fy = _mm256_set1_ps(1.0f - fy);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 cu = _mm256_set1_ps(1.0f - kWb);
  const __m256 cv = _mm256_set1_ps(1.0f - kWr);
  const __m256 wr = _mm256_set1_ps(kWr);
  const __m256 wb = _mm256_set1_ps(kWb);
  const __m256 wg = _mm256_set1_ps(kWg);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);

  const auto sample2 = [&](const float* r0, const float* r1, int k) {
    // Bilinear, as chroma_sample: per row the *right* tap's multiply rounds
    // and the left tap fuses, a = fma(left, 1-fx, right*fx); vertically the
    // row-1 multiply rounds, sample = fma(a, 1-fy, b*fy).
    const __m256 c0 = _mm256_loadu_ps(r0 + k - 1);
    const __m256 c1 = _mm256_loadu_ps(r1 + k - 1);
    const __m256 a =
        _mm256_fmadd_ps(_mm256_permutevar8x32_ps(c0, left_idx), one_minus_fx,
                        _mm256_mul_ps(_mm256_permutevar8x32_ps(c0, right_idx),
                                      fx));
    const __m256 bv =
        _mm256_fmadd_ps(_mm256_permutevar8x32_ps(c1, left_idx), one_minus_fx,
                        _mm256_mul_ps(_mm256_permutevar8x32_ps(c1, right_idx),
                                      fx));
    return _mm256_fmadd_ps(a, one_minus_fy, _mm256_mul_ps(bv, vfy));
  };

  int x = 0;
  // x = 0 (and x = 1 when the vector loop can't start) go scalar below.
  for (; x < std::min(2, W); ++x)
    yuv_rgb_pixel(yrow, u0, u1, v0, v1, fy, cw, x, r, g, b);
  for (; x % 2 == 0 && x + 8 <= W - 1 && x / 2 + 6 <= cw - 1; x += 8) {
    const int k = x / 2;
    // (s - 0.5f) * 2.0f * (1 - w), as yuv_rgb_pixel: doubling is x+x, then
    // the (1-kWb) multiply rounds before the +luma add for the U branch,
    // while the V branch's (1-kWr) multiply fuses *into* the +luma add.
    const __m256 ud = _mm256_sub_ps(sample2(u0, u1, k), half);
    const __m256 us = _mm256_mul_ps(_mm256_add_ps(ud, ud), cu);
    const __m256 vd = _mm256_sub_ps(sample2(v0, v1, k), half);
    const __m256 luma = _mm256_loadu_ps(yrow + x);
    const __m256 rr = _mm256_fmadd_ps(_mm256_add_ps(vd, vd), cv, luma);
    const __m256 bb = _mm256_add_ps(luma, us);
    const __m256 gg = _mm256_div_ps(
        _mm256_fnmadd_ps(wb, bb, _mm256_fnmadd_ps(wr, rr, luma)), wg);
    _mm256_storeu_ps(r + x, _mm256_min_ps(one, _mm256_max_ps(zero, rr)));
    _mm256_storeu_ps(g + x, _mm256_min_ps(one, _mm256_max_ps(zero, gg)));
    _mm256_storeu_ps(b + x, _mm256_min_ps(one, _mm256_max_ps(zero, bb)));
  }
  for (; x < W; ++x) yuv_rgb_pixel(yrow, u0, u1, v0, v1, fy, cw, x, r, g, b);
}

void rgb_to_yuv_row_avx2(const float* r, const float* g, const float* b,
                         int W, float* yrow, float* uf, float* vf) {
  const __m256 wr = _mm256_set1_ps(kWr);
  const __m256 wg = _mm256_set1_ps(kWg);
  const __m256 wb = _mm256_set1_ps(kWb);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 du = _mm256_set1_ps(1.0f - kWb);
  const __m256 dv = _mm256_set1_ps(1.0f - kWr);
  int x = 0;
  for (; x + 8 <= W; x += 8) {
    const __m256 rv = _mm256_loadu_ps(r + x);
    const __m256 gv = _mm256_loadu_ps(g + x);
    const __m256 bv = _mm256_loadu_ps(b + x);
    // luma = fma(kWb, b, fma(kWr, r, kWg*g)), as rgb_yuv_pixel: the kWg*g
    // product rounds first.
    const __m256 luma = _mm256_fmadd_ps(
        wb, bv, _mm256_fmadd_ps(wr, rv, _mm256_mul_ps(wg, gv)));
    _mm256_storeu_ps(yrow + x, luma);
    // 0.5 + (0.5*(c - luma)) / (1 - w): no fused step.
    const __m256 un = _mm256_mul_ps(half, _mm256_sub_ps(bv, luma));
    _mm256_storeu_ps(uf + x, _mm256_add_ps(half, _mm256_div_ps(un, du)));
    const __m256 vn = _mm256_mul_ps(half, _mm256_sub_ps(rv, luma));
    _mm256_storeu_ps(vf + x, _mm256_add_ps(half, _mm256_div_ps(vn, dv)));
  }
  for (; x < W; ++x) rgb_yuv_pixel(r, g, b, x, yrow, uf, vf);
}

void chroma_box_row_avx2(const float* f0, const float* f1, int w, float* out) {
  const int cw = w / 2;
  const __m256 quarter = _mm256_set1_ps(0.25f);
  int x = 0;
  // Deinterleaves 16 consecutive samples of a row into even/odd lanes.
  struct EvenOdd {
    __m256 ev, od;
  };
  const auto deint = [](const float* p) {
    const __m256 lo = _mm256_loadu_ps(p);
    const __m256 hi = _mm256_loadu_ps(p + 8);
    EvenOdd r;
    r.ev = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0))),
        _MM_SHUFFLE(3, 1, 2, 0)));
    r.od = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1))),
        _MM_SHUFFLE(3, 1, 2, 0)));
    return r;
  };
  for (; x + 8 <= cw; x += 8) {
    const EvenOdd a = deint(f0 + 2 * x);
    const EvenOdd b = deint(f1 + 2 * x);
    // ((e0 + o0) + e1) + o1, the oracle's association order, then * 0.25.
    const __m256 s = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(a.ev, a.od), b.ev), b.od);
    _mm256_storeu_ps(out + x, _mm256_mul_ps(quarter, s));
  }
  for (; x < cw; ++x)
    out[x] = 0.25f * (f0[2 * x] + f0[2 * x + 1] + f1[2 * x] + f1[2 * x + 1]);
}

}  // namespace

bool populate_avx2(KernelTable& t) noexcept {
  t.id = Backend::kAvx2;
  t.dct8x8 = &dct8x8_avx2;
  t.idct8x8 = &idct8x8_avx2;
  t.dequant_idct8x8 = &dequant_idct8x8_avx2;
  t.quantize_block = &quantize_block_avx2;
  t.dequantize_block = &dequantize_block_avx2;
  t.gemm_tile = &gemm_tile_avx2;
  t.im2col_row = &im2col_row_avx2;
  t.conv3x3 = &conv3x3<Ymm, 4, 2>;
  t.conv3x3_dw = &conv3x3_dw_avx2;
  t.conv3x3_dx = &conv3x3_dx<Ymm, 4, 2>;
  t.row_sum = &row_sum_avx2;
  t.yuv_to_rgb_row = &yuv_to_rgb_row_avx2;
  t.rgb_to_yuv_row = &rgb_to_yuv_row_avx2;
  t.chroma_box_row = &chroma_box_row_avx2;
  for (int f = 0; f < kNumFamilies; ++f) t.origin[f] = Backend::kAvx2;
  return true;
}

}  // namespace dcsr::simd

#else  // non-x86: nothing to install.

namespace dcsr::simd {
bool populate_avx2(KernelTable&) noexcept { return false; }
}  // namespace dcsr::simd

#endif

// AVX-512 tier. Compiled with -mavx512f -mavx2 -mfma (see
// src/simd/CMakeLists.txt) on top of the tree-wide -ffp-contract=off;
// installed only when cpuid reports avx512f besides the AVX2 tier's avx2
// and fma.
//
// The tier overlays a copy of the AVX2 table and replaces the two direct
// 3x3 families whose vector lanes are independent output pixels, conv3x3
// and conv3x3_dx. Each zmm lane replays one output's fma chain exactly as
// the AVX2 kernel and the scalar oracle do (same terms, same ascending
// order, the same store and reload between input-channel chunks), so the
// wider vectors change the speed and never a bit. A tile is 8 channels x
// 16 or 32 pixels; the last o % 8 (c % 8) channels go through the AVX2
// kernel, which is faster than a zmm tile for a block of 3 (the 8 -> 3
// output conv of every micro model). conv3x3_dw stays on AVX2: its
// contract fixes eight lane sums per output.
//
// GCC 12's _mm512_max_ps passes _mm512_undefined_ps() as its pass-through
// operand, which trips -Wmaybe-uninitialized under -Werror; the relu uses
// the all-ones-mask form, the same vmaxps.
#include "simd/kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>

namespace dcsr::simd {
namespace {

// Channels per zmm tile.
constexpr int kBlock = 8;

// The first n lanes (1 <= n <= 16).
inline __mmask16 first_lanes(int n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}

// Vector v of a tile of NV vectors at p: the last one loads only the lanes
// in `tail` when kMasked (masked-off lanes read as zero, fault-free).
template <int NV, bool kMasked>
inline __m512 load_lanes(const float* p, int v, __mmask16 tail) {
  return kMasked && v == NV - 1 ? _mm512_maskz_loadu_ps(tail, p + 16 * v)
                                : _mm512_loadu_ps(p + 16 * v);
}

template <int NV, bool kMasked>
inline void store_lanes(float* p, int v, __mmask16 tail, __m512 r) {
  if (kMasked && v == NV - 1)
    _mm512_mask_storeu_ps(p + 16 * v, tail, r);
  else
    _mm512_storeu_ps(p + 16 * v, r);
}

// --- Direct 3x3 convolution: forward ----------------------------------------
//
// The AVX2 kernel's scheme with zmm tiles: a register tile is 8 output
// channels x NV vectors of 16 consecutive pixels of one output row; per
// (c, ky, kx) term it takes NV input loads, 8 weight broadcasts and 8*NV
// vfmadds in the oracle's ascending order. The weights of a block are packed
// term-major, 8 floats per term, in input-channel chunks of at most
// kConvChunk; a later chunk resumes each chain from the partial sum the
// previous one stored (a float store and reload are exact), and only the
// last chunk adds the bias and clamps.

constexpr int kConvChunk = 32;

template <int NV, bool kMasked>
inline void conv3x3_tile(const float* src, std::size_t in_rs,
                         std::size_t in_ps, int cc, const float* pk,
                         bool first, bool last, const float* bias, bool relu,
                         float* dst, std::size_t out_ps, __mmask16 tail) {
  __m512 acc[kBlock][NV];
#pragma GCC unroll 8
  for (int k = 0; k < kBlock; ++k)
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v)
      acc[k][v] = first ? _mm512_setzero_ps()
                        : load_lanes<NV, kMasked>(dst + k * out_ps, v, tail);
  for (int ci = 0; ci < cc; ++ci) {
    const float* plane = src + static_cast<std::size_t>(ci) * in_ps;
#pragma GCC unroll 3
    for (int ky = 0; ky < 3; ++ky) {
#pragma GCC unroll 3
      for (int kx = 0; kx < 3; ++kx, pk += kBlock) {
        const float* p = plane + static_cast<std::size_t>(ky) * in_rs + kx;
        __m512 xv[NV];
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) xv[v] = load_lanes<NV, kMasked>(p, v, tail);
#pragma GCC unroll 8
        for (int k = 0; k < kBlock; ++k) {
          const __m512 wv = _mm512_set1_ps(pk[k]);
#pragma GCC unroll 2
          for (int v = 0; v < NV; ++v)
            acc[k][v] = _mm512_fmadd_ps(wv, xv[v], acc[k][v]);
        }
      }
    }
  }
  const __m512 zero = _mm512_setzero_ps();
#pragma GCC unroll 8
  for (int k = 0; k < kBlock; ++k) {
    const __m512 b = _mm512_set1_ps(bias[k]);
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      __m512 r = acc[k][v];
      if (last) {
        r = _mm512_add_ps(r, b);
        // vmaxps returns its second operand unless the first is greater:
        // the oracle's v > 0 ? v : 0, for -0 and NaN alike.
        if (relu) r = _mm512_maskz_max_ps(0xFFFF, r, zero);
      }
      store_lanes<NV, kMasked>(dst + k * out_ps, v, tail, r);
    }
  }
}

// One output row of 8 planes for one input-channel chunk: tiles of 32
// pixels, then one tile of the 1..31 left, its last vector masked.
void conv3x3_row(const float* src, std::size_t in_rs, std::size_t in_ps,
                 int cc, int w, const float* pk, bool first, bool last,
                 const float* bias, bool relu, float* dst,
                 std::size_t out_ps) {
  int x = 0;
  for (; x + 32 <= w; x += 32)
    conv3x3_tile<2, false>(src + x, in_rs, in_ps, cc, pk, first, last, bias,
                           relu, dst + x, out_ps, 0);
  const int r = w - x;
  if (r > 16)
    conv3x3_tile<2, true>(src + x, in_rs, in_ps, cc, pk, first, last, bias,
                          relu, dst + x, out_ps, first_lanes(r - 16));
  else if (r > 0)
    conv3x3_tile<1, true>(src + x, in_rs, in_ps, cc, pk, first, last, bias,
                          relu, dst + x, out_ps, first_lanes(r));
}

// Output rows go in the AVX2 kernel's bands, and every channel block of a
// band (the AVX2 remainder included) runs while the band's input rows are
// still in cache.
constexpr int kConvBandPixels = 4096;

void conv3x3_avx512(const float* in, std::size_t in_rs, int c, int h, int w,
                    const float* wt, const float* bias, int o, bool relu,
                    int y0, int y1, float* out) {
  const std::size_t in_ps = static_cast<std::size_t>(h + 2) * in_rs;
  const std::size_t out_ps = static_cast<std::size_t>(h) * w;
  const std::size_t w_rs = static_cast<std::size_t>(9) * c;
  const int band = std::max(1, kConvBandPixels / w);
  const int o8 = o - o % kBlock;
  float pk[kConvChunk * 9 * kBlock];
  for (int b0 = y0; b0 < y1; b0 += band) {
    const int b1 = std::min(y1, b0 + band);
    for (int k = 0; k < o8; k += kBlock)
      for (int c0 = 0; c0 < c; c0 += kConvChunk) {
        const int cc = std::min(kConvChunk, c - c0);
        const float* wk = wt + static_cast<std::size_t>(k) * w_rs +
                          static_cast<std::size_t>(c0) * 9;
        for (int t = 0; t < cc * 9; ++t)
          for (int j = 0; j < kBlock; ++j)
            pk[t * kBlock + j] = wk[j * w_rs + t];
        const bool first = c0 == 0, last = c0 + cc == c;
        for (int y = b0; y < b1; ++y)
          conv3x3_row(in + static_cast<std::size_t>(c0) * in_ps +
                          static_cast<std::size_t>(y) * in_rs,
                      in_rs, in_ps, cc, w, pk, first, last, bias + k, relu,
                      out + static_cast<std::size_t>(k) * out_ps +
                          static_cast<std::size_t>(y) * w,
                      out_ps);
      }
    if (o8 < o)
      conv3x3_avx2(in, in_rs, c, h, w, wt + o8 * w_rs, bias + o8, o - o8,
                   relu, b0, b1, out + o8 * out_ps);
  }
}

// --- Direct 3x3 convolution: input gradient ---------------------------------
//
// The AVX2 kernel's scheme with zmm tiles: a register tile is 8 input
// channels x NV vectors of 16 consecutive pixels of one dx row. Per tap
// (ky, kx), in order, it runs 8*NV fma chains from +0 over the o output
// channels, then adds each chain into its dx pixels, which start as
// +0 + the first tap.

template <int NV, bool kMasked>
inline void conv3x3_dx_tile(const float* dy, std::size_t dy_rs,
                            std::size_t dy_ps, int o, const float* wt,
                            std::size_t w_rs, float* dst, std::size_t dx_ps,
                            __mmask16 tail) {
  for (int tap = 0; tap < 9; ++tap) {
    const int ky = tap / 3, kx = tap % 3;
    const float* src =
        dy + static_cast<std::size_t>(2 - ky) * dy_rs + (2 - kx);
    const float* wk = wt + tap;
    __m512 t[kBlock][NV];
#pragma GCC unroll 8
    for (int cb = 0; cb < kBlock; ++cb)
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) t[cb][v] = _mm512_setzero_ps();
    for (int k = 0; k < o; ++k, src += dy_ps, wk += w_rs) {
      __m512 dv[NV];
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) dv[v] = load_lanes<NV, kMasked>(src, v, tail);
#pragma GCC unroll 8
      for (int cb = 0; cb < kBlock; ++cb) {
        const __m512 wv = _mm512_set1_ps(wk[9 * cb]);
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v)
          t[cb][v] = _mm512_fmadd_ps(wv, dv[v], t[cb][v]);
      }
    }
#pragma GCC unroll 8
    for (int cb = 0; cb < kBlock; ++cb)
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        float* d = dst + cb * dx_ps;
        const __m512 acc = tap == 0 ? _mm512_setzero_ps()
                                    : load_lanes<NV, kMasked>(d, v, tail);
        store_lanes<NV, kMasked>(d, v, tail, _mm512_add_ps(acc, t[cb][v]));
      }
  }
}

// All rows of 8 dx planes: tiles of 32 pixels, then one tile of the 1..31
// left, its last vector masked.
void conv3x3_dx_block(const float* dy, std::size_t dy_rs, std::size_t dy_ps,
                      int o, int h, int w, const float* wt, std::size_t w_rs,
                      float* dx) {
  const std::size_t dx_ps = static_cast<std::size_t>(h) * w;
  for (int y = 0; y < h; ++y) {
    const float* src = dy + static_cast<std::size_t>(y) * dy_rs;
    float* dst = dx + static_cast<std::size_t>(y) * w;
    int x = 0;
    for (; x + 32 <= w; x += 32)
      conv3x3_dx_tile<2, false>(src + x, dy_rs, dy_ps, o, wt, w_rs, dst + x,
                                dx_ps, 0);
    const int r = w - x;
    if (r > 16)
      conv3x3_dx_tile<2, true>(src + x, dy_rs, dy_ps, o, wt, w_rs, dst + x,
                               dx_ps, first_lanes(r - 16));
    else if (r > 0)
      conv3x3_dx_tile<1, true>(src + x, dy_rs, dy_ps, o, wt, w_rs, dst + x,
                               dx_ps, first_lanes(r));
  }
}

void conv3x3_dx_avx512(const float* dy, std::size_t dy_rs, int o, int h,
                       int w, const float* wt, int c, int c0, int c1,
                       float* dx) {
  const std::size_t dy_ps = static_cast<std::size_t>(h + 2) * dy_rs;
  const std::size_t w_rs = static_cast<std::size_t>(9) * c;
  const std::size_t dx_ps = static_cast<std::size_t>(h) * w;
  int ci = c0;
  for (; ci + kBlock <= c1; ci += kBlock)
    conv3x3_dx_block(dy, dy_rs, dy_ps, o, h, w, wt + ci * 9, w_rs,
                     dx + ci * dx_ps);
  if (ci < c1) conv3x3_dx_avx2(dy, dy_rs, o, h, w, wt, c, ci, c1, dx);
}

}  // namespace

bool populate_avx512(KernelTable& t) noexcept {
  t.id = Backend::kAvx512;
  t.conv3x3 = &conv3x3_avx512;
  t.conv3x3_dx = &conv3x3_dx_avx512;
  t.origin[kFamConv3x3] = Backend::kAvx512;
  t.origin[kFamConv3x3Dx] = Backend::kAvx512;
  return true;
}

}  // namespace dcsr::simd

#else  // non-x86: nothing to install.

namespace dcsr::simd {
bool populate_avx512(KernelTable&) noexcept { return false; }
}  // namespace dcsr::simd

#endif

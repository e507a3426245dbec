#pragma once

// Direct 3x3 convolution, forward (KernelTable::conv3x3) and input gradient
// (KernelTable::conv3x3_dx), written once over a vector-width traits type.
// Included only by the ISA translation units: kernels_avx2.cpp instantiates
// it on Ymm below, kernels_avx512.cpp on its own Zmm traits and, for the
// channels left over after its blocks, on Ymm. Everything here has internal
// linkage, so each TU compiles its own copy under its own -m flags and no
// AVX-512 instruction can reach the AVX2 path.
//
// Each vector lane is one output pixel and replays that output's fma chain
// as the scalar oracle does (same terms, same ascending order, the same
// store and reload between input-channel chunks), so the vector width
// changes the speed and never a bit.
//
// A traits type V provides the vector `reg` and its lane `mask` types,
// kLanes, and zero(), load(p), load_masked(p, m) (masked-off lanes read as
// zero, fault-free), store(p, v), store_masked(p, m, v) (masked-off lanes
// untouched), broadcast(p) of one float in memory, fmadd(a, b, c) = a*b + c
// rounded once, add(a, b), relu(v) = v > 0 ? v : 0 per lane, and
// first_lanes(n), the mask of lanes [0, n) for 1 <= n <= kLanes.

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

namespace dcsr::simd {
namespace {

// 8-lane ymm vectors (AVX2 + FMA).
struct Ymm {
  using reg = __m256;
  using mask = __m256i;
  static constexpr int kLanes = 8;
  static reg zero() { return _mm256_setzero_ps(); }
  static reg load(const float* p) { return _mm256_loadu_ps(p); }
  static reg load_masked(const float* p, mask m) {
    return _mm256_maskload_ps(p, m);
  }
  static void store(float* p, reg v) { _mm256_storeu_ps(p, v); }
  static void store_masked(float* p, mask m, reg v) {
    _mm256_maskstore_ps(p, m, v);
  }
  static reg broadcast(const float* p) { return _mm256_broadcast_ss(p); }
  static reg fmadd(reg a, reg b, reg c) { return _mm256_fmadd_ps(a, b, c); }
  static reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
  // vmaxps returns its second operand unless the first is greater: the
  // oracle's v > 0 ? v : 0, for -0 and NaN alike.
  static reg relu(reg v) { return _mm256_max_ps(v, _mm256_setzero_ps()); }
  static mask first_lanes(int n) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
};

// Vector v of a tile of NV vectors at p: when kMasked, the last one covers
// only the lanes in `tail`.
template <class V, int NV, bool kMasked>
inline typename V::reg load_vec(const float* p, int v,
                                typename V::mask tail) {
  return kMasked && v == NV - 1 ? V::load_masked(p + V::kLanes * v, tail)
                                : V::load(p + V::kLanes * v);
}

template <class V, int NV, bool kMasked>
inline void store_vec(float* p, int v, typename V::mask tail,
                      typename V::reg r) {
  if (kMasked && v == NV - 1)
    V::store_masked(p + V::kLanes * v, tail, r);
  else
    V::store(p + V::kLanes * v, r);
}

// The tail policy of both kernels and every width: a row of w pixels goes in
// tiles of NV vectors, then the r pixels left (0 < r < kLanes * NV) in one
// tile of ceil(r / kLanes) vectors whose last vector is masked to the lanes
// it covers. tile.template operator()<nv, masked>(x, tail) runs the tile of
// nv vectors at pixel x.
template <class V, int NV, class Tile>
inline void tail_tile(int x, int r, const Tile& tile) {
  if constexpr (NV > 1)
    if (r <= V::kLanes * (NV - 1)) return tail_tile<V, NV - 1>(x, r, tile);
  tile.template operator()<NV, true>(
      x, V::first_lanes(r - V::kLanes * (NV - 1)));
}

template <class V, int NV, class Tile>
inline void for_each_tile(int w, const Tile& tile) {
  int x = 0;
  for (; x + V::kLanes * NV <= w; x += V::kLanes * NV)
    tile.template operator()<NV, false>(x, typename V::mask{});
  if (x < w) tail_tile<V, NV>(x, w - x, tile);
}

// --- Forward ----------------------------------------------------------------
//
// A register tile is OB output channels x NV vectors of consecutive pixels
// of one output row: OB*NV accumulators, and per (c, ky, kx) term NV input
// loads, OB weight broadcasts and OB*NV fmadds, in the oracle's ascending
// order. Masked-off lanes load zero, feed only their own accumulators and
// are never stored.
//
// The weights of an OB-channel block are first packed term-major, OB floats
// per (c, ky, kx), so a tile walks them with one pointer. Input channels go
// in chunks of at most kConvChunk, which bounds the pack buffer on the
// stack; a later chunk resumes each chain from the partial sum the previous
// chunk stored in the output (a float store and reload are exact), and only
// the last chunk adds the bias and clamps.

constexpr int kConvChunk = 32;

// Output rows go in bands of about kConvBandPixels pixels, and every
// channel block of a band runs while the band's input rows are still in
// cache, which matters once a frame's planes outgrow the caches
// (paper-scale 1280x720 frames). Each block packs its weights once per band.
constexpr int kConvBandPixels = 4096;

template <class V, int OB, int NV, bool kMasked>
inline void conv3x3_tile(const float* src, std::size_t in_rs,
                         std::size_t in_ps, int cc, const float* pk,
                         bool first, bool last, const float* bias, bool relu,
                         float* dst, std::size_t out_ps,
                         typename V::mask tail) {
  typename V::reg acc[OB][NV];
#pragma GCC unroll 8
  for (int k = 0; k < OB; ++k)
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v)
      acc[k][v] = first ? V::zero()
                        : load_vec<V, NV, kMasked>(dst + k * out_ps, v, tail);
  for (int ci = 0; ci < cc; ++ci) {
    const float* plane = src + static_cast<std::size_t>(ci) * in_ps;
#pragma GCC unroll 3
    for (int ky = 0; ky < 3; ++ky) {
#pragma GCC unroll 3
      for (int kx = 0; kx < 3; ++kx, pk += OB) {
        const float* p = plane + static_cast<std::size_t>(ky) * in_rs + kx;
        typename V::reg xv[NV];
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) xv[v] = load_vec<V, NV, kMasked>(p, v, tail);
#pragma GCC unroll 8
        for (int k = 0; k < OB; ++k) {
          const typename V::reg wv = V::broadcast(pk + k);
#pragma GCC unroll 4
          for (int v = 0; v < NV; ++v) acc[k][v] = V::fmadd(wv, xv[v], acc[k][v]);
        }
      }
    }
  }
#pragma GCC unroll 8
  for (int k = 0; k < OB; ++k) {
    const typename V::reg b = V::broadcast(bias + k);
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) {
      typename V::reg r = acc[k][v];
      if (last) {
        r = V::add(r, b);
        if (relu) r = V::relu(r);
      }
      store_vec<V, NV, kMasked>(dst + k * out_ps, v, tail, r);
    }
  }
}

// One conv3x3 call's operands and strides.
struct ConvArgs {
  const float* in;
  std::size_t in_rs;
  std::size_t in_ps;
  int c;
  int w;
  const float* wt;
  std::size_t w_rs;
  const float* bias;
  bool relu;
  float* out;
  std::size_t out_ps;
};

// Rows [b0, b1) of the OB output planes from channel k.
template <class V, int OB, int NV>
void conv3x3_block(const ConvArgs& a, int k, int b0, int b1) {
  float pk[kConvChunk * 9 * OB];
  for (int c0 = 0; c0 < a.c; c0 += kConvChunk) {
    const int cc = std::min(kConvChunk, a.c - c0);
    const float* wk = a.wt + static_cast<std::size_t>(k) * a.w_rs +
                      static_cast<std::size_t>(c0) * 9;
    for (int t = 0; t < cc * 9; ++t)
      for (int j = 0; j < OB; ++j) pk[t * OB + j] = wk[j * a.w_rs + t];
    const bool first = c0 == 0, last = c0 + cc == a.c;
    for (int y = b0; y < b1; ++y) {
      const float* src = a.in + static_cast<std::size_t>(c0) * a.in_ps +
                         static_cast<std::size_t>(y) * a.in_rs;
      float* dst = a.out + static_cast<std::size_t>(k) * a.out_ps +
                   static_cast<std::size_t>(y) * a.w;
      for_each_tile<V, NV>(a.w, [&]<int N, bool M>(int x,
                                                   typename V::mask tail) {
        conv3x3_tile<V, OB, N, M>(src + x, a.in_rs, a.in_ps, cc, pk, first,
                                  last, a.bias + k, a.relu, dst + x, a.out_ps,
                                  tail);
      });
    }
  }
}

// KernelTable::conv3x3: each band runs the output channels in blocks of OB
// with NV-vector tiles of V, then the last o % OB in ymm blocks of up to 4.
// A ymm block's NV keeps 8-9 chains in flight to cover the fma latency, and
// with the NV inputs and one broadcast a tile fits 16 ymm registers (blocks
// of 6 or 8 channels measured no faster on 8- and 16-filter models).
template <class V, int OB, int NV>
void conv3x3(const float* in, std::size_t in_rs, int c, int h, int w,
             const float* wt, const float* bias, int o, bool relu, int y0,
             int y1, float* out) {
  const ConvArgs a{.in = in,
                   .in_rs = in_rs,
                   .in_ps = static_cast<std::size_t>(h + 2) * in_rs,
                   .c = c,
                   .w = w,
                   .wt = wt,
                   .w_rs = static_cast<std::size_t>(9) * c,
                   .bias = bias,
                   .relu = relu,
                   .out = out,
                   .out_ps = static_cast<std::size_t>(h) * w};
  const int band = std::max(1, kConvBandPixels / w);
  for (int b0 = y0; b0 < y1; b0 += band) {
    const int b1 = std::min(y1, b0 + band);
    int k = 0;
    for (; k + OB <= o; k += OB) conv3x3_block<V, OB, NV>(a, k, b0, b1);
    for (; k < o; k += 4) {
      switch (o - k) {
        case 1: conv3x3_block<Ymm, 1, 4>(a, k, b0, b1); break;
        case 2: conv3x3_block<Ymm, 2, 4>(a, k, b0, b1); break;
        case 3: conv3x3_block<Ymm, 3, 3>(a, k, b0, b1); break;
        default: conv3x3_block<Ymm, 4, 2>(a, k, b0, b1);
      }
    }
  }
}

// --- Input gradient ---------------------------------------------------------
//
// A register tile is CB input channels x NV vectors of consecutive pixels of
// one dx row. Per tap (ky, kx), in order, it runs CB*NV fma chains from +0
// over the o output channels (NV dy loads and CB weight broadcasts per
// channel), then adds each chain into its dx pixels, which start as
// +0 + the first tap. Masked-off lanes load zero and are never stored.

template <class V, int CB, int NV, bool kMasked>
inline void conv3x3_dx_tile(const float* dy, std::size_t dy_rs,
                            std::size_t dy_ps, int o, const float* wt,
                            std::size_t w_rs, float* dst, std::size_t dx_ps,
                            typename V::mask tail) {
  for (int tap = 0; tap < 9; ++tap) {
    const int ky = tap / 3, kx = tap % 3;
    const float* src =
        dy + static_cast<std::size_t>(2 - ky) * dy_rs + (2 - kx);
    const float* wk = wt + tap;
    typename V::reg t[CB][NV];
#pragma GCC unroll 8
    for (int cb = 0; cb < CB; ++cb)
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) t[cb][v] = V::zero();
    for (int k = 0; k < o; ++k, src += dy_ps, wk += w_rs) {
      typename V::reg dv[NV];
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) dv[v] = load_vec<V, NV, kMasked>(src, v, tail);
#pragma GCC unroll 8
      for (int cb = 0; cb < CB; ++cb) {
        const typename V::reg wv = V::broadcast(wk + 9 * cb);
#pragma GCC unroll 2
        for (int v = 0; v < NV; ++v) t[cb][v] = V::fmadd(wv, dv[v], t[cb][v]);
      }
    }
#pragma GCC unroll 8
    for (int cb = 0; cb < CB; ++cb)
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        float* d = dst + cb * dx_ps;
        const typename V::reg acc =
            tap == 0 ? V::zero() : load_vec<V, NV, kMasked>(d, v, tail);
        store_vec<V, NV, kMasked>(d, v, tail, V::add(acc, t[cb][v]));
      }
  }
}

// One conv3x3_dx call's operands and strides.
struct ConvDxArgs {
  const float* dy;
  std::size_t dy_rs;
  std::size_t dy_ps;
  int o;
  int h;
  int w;
  const float* wt;
  std::size_t w_rs;
  float* dx;
  std::size_t dx_ps;
};

// Every row of the CB dx planes from channel ci.
template <class V, int CB, int NV>
void conv3x3_dx_block(const ConvDxArgs& a, int ci) {
  const float* wt = a.wt + ci * 9;
  for (int y = 0; y < a.h; ++y) {
    const float* src = a.dy + static_cast<std::size_t>(y) * a.dy_rs;
    float* dst = a.dx + ci * a.dx_ps + static_cast<std::size_t>(y) * a.w;
    for_each_tile<V, NV>(a.w, [&]<int N, bool M>(int x,
                                                 typename V::mask tail) {
      conv3x3_dx_tile<V, CB, N, M>(src + x, a.dy_rs, a.dy_ps, a.o, wt, a.w_rs,
                                   dst + x, a.dx_ps, tail);
    });
  }
}

// KernelTable::conv3x3_dx: planes [c0, c1) in blocks of CB with NV-vector
// tiles of V, then the rest in ymm blocks of up to 4.
template <class V, int CB, int NV>
void conv3x3_dx(const float* dy, std::size_t dy_rs, int o, int h, int w,
                const float* wt, int c, int c0, int c1, float* dx) {
  const ConvDxArgs a{.dy = dy,
                     .dy_rs = dy_rs,
                     .dy_ps = static_cast<std::size_t>(h + 2) * dy_rs,
                     .o = o,
                     .h = h,
                     .w = w,
                     .wt = wt,
                     .w_rs = static_cast<std::size_t>(9) * c,
                     .dx = dx,
                     .dx_ps = static_cast<std::size_t>(h) * w};
  int ci = c0;
  for (; ci + CB <= c1; ci += CB) conv3x3_dx_block<V, CB, NV>(a, ci);
  for (; ci < c1; ci += 4) {
    switch (c1 - ci) {
      case 1: conv3x3_dx_block<Ymm, 1, 2>(a, ci); break;
      case 2: conv3x3_dx_block<Ymm, 2, 2>(a, ci); break;
      case 3: conv3x3_dx_block<Ymm, 3, 2>(a, ci); break;
      default: conv3x3_dx_block<Ymm, 4, 2>(a, ci);
    }
  }
}

}  // namespace
}  // namespace dcsr::simd

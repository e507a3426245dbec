#pragma once

// Shared per-element helpers for the kernel TUs (scalar oracle and SIMD
// backends alike). SIMD row kernels vectorise interior lanes and call these
// for edge pixels / tail lanes, so edge handling is the *same inlined code*
// in every backend. Each fused step is a written std::fma and every other
// multiply rounds; the tree compiles with -ffp-contract=off, so the helpers
// mean the same float operations in every TU that inlines them.
// Internal to src/simd: call sites outside it go through dispatch.hpp.

#include <algorithm>
#include <cmath>

namespace dcsr::simd {

// BT.601 full-range coefficients (image/convert.cpp's historical values).
inline constexpr float kWr = 0.299f;
inline constexpr float kWg = 0.587f;
inline constexpr float kWb = 0.114f;

inline int clamp_idx(int v, int n) noexcept {
  return v < 0 ? 0 : (v >= n ? n - 1 : v);
}

// Bilinear chroma sample at luma pixel x from two pre-selected (vertically
// clamped) chroma rows of width cw. Same expression structure as the
// historical yuv420_to_rgb_into lambda: the horizontal taps are clamped but
// fx comes from the *unclamped* x0, so edge pixels still blend duplicated
// samples exactly as Plane::at_clamped did.
inline float chroma_sample(const float* r0, const float* r1, int cw, int x,
                           float fy) noexcept {
  const float cx = (static_cast<float>(x) - 0.5f) / 2.0f;
  const int x0 = static_cast<int>(std::floor(cx));
  const float fx = cx - static_cast<float>(x0);
  const int xl = clamp_idx(x0, cw);
  const int xr = clamp_idx(x0 + 1, cw);
  // Per row the right tap rounds and the left tap fuses; vertically the
  // row-1 term rounds and the row-0 term fuses.
  const float a = std::fma(r0[xl], 1 - fx, r0[xr] * fx);
  const float b = std::fma(r1[xl], 1 - fx, r1[xr] * fx);
  return std::fma(a, 1 - fy, b * fy);
}

// One output pixel of YUV420 -> RGB (bilinear chroma upsample, BT.601).
inline void yuv_rgb_pixel(const float* yrow, const float* u0, const float* u1,
                          const float* v0, const float* v1, float fy, int cw,
                          int x, float* r, float* g, float* b) noexcept {
  const float luma = yrow[x];
  // The U branch's (1 - kWb) multiply rounds before the + luma add; the V
  // branch's (1 - kWr) multiply fuses into it.
  const float u = (chroma_sample(u0, u1, cw, x, fy) - 0.5f) * 2.0f * (1.0f - kWb);
  const float v = (chroma_sample(v0, v1, cw, x, fy) - 0.5f) * 2.0f;
  const float rr = std::fma(v, 1.0f - kWr, luma);
  const float bb = luma + u;
  const float gg = std::fma(-kWb, bb, std::fma(-kWr, rr, luma)) / kWg;
  r[x] = std::clamp(rr, 0.0f, 1.0f);
  g[x] = std::clamp(gg, 0.0f, 1.0f);
  b[x] = std::clamp(bb, 0.0f, 1.0f);
}

// One pixel of RGB -> luma + full-resolution chroma offsets.
inline void rgb_yuv_pixel(const float* r, const float* g, const float* b,
                          int x, float* yrow, float* uf, float* vf) noexcept {
  // The kWg * g product rounds; the kWr and kWb terms fuse onto it.
  const float luma = std::fma(kWb, b[x], std::fma(kWr, r[x], kWg * g[x]));
  yrow[x] = luma;
  uf[x] = 0.5f + 0.5f * (b[x] - luma) / (1.0f - kWb);
  vf[x] = 0.5f + 0.5f * (r[x] - luma) / (1.0f - kWr);
}

}  // namespace dcsr::simd

// Scalar reference kernels: the bit-exact oracle every SIMD backend is
// pinned against. These are the historical inner loops of dct.cpp,
// quant.cpp, convert.cpp and tensor/ops.cpp, with raw-pointer arguments
// replacing the wrapper types, so the dispatch table has a scalar entry for
// every family. Every fused multiply-add is a written std::fma and
// the tree compiles with -ffp-contract=off (root CMakeLists.txt), so the
// arithmetic below is the oracle's definition whatever -march or build type
// compiles it.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "simd/kernels.hpp"
#include "simd/kernels_inline.hpp"

namespace dcsr::simd {

namespace {

// Precomputed orthonormal DCT-II basis: kBasis[k*8+n] = c(k) *
// cos((2n+1)k*pi/16) — the same table dct.cpp historically built.
struct DctBasis {
  float m[64];
  float mt[64];
  DctBasis() noexcept {
    const double pi = 3.14159265358979323846;
    for (int k = 0; k < 8; ++k) {
      const double ck = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int n = 0; n < 8; ++n)
        m[k * 8 + n] = static_cast<float>(
            ck * std::cos((2.0 * n + 1.0) * k * pi / 16.0));
    }
    for (int k = 0; k < 8; ++k)
      for (int n = 0; n < 8; ++n) mt[n * 8 + k] = m[k * 8 + n];
  }
};
const DctBasis kB;

// Each transform output is an 8-term chain in ascending index order: the
// first term a rounded multiply, every later term an fma.
void dct8x8_scalar(const float* in, float* out) {
  // Separable: rows then columns.
  float tmp[64];
  for (int y = 0; y < 8; ++y)
    for (int k = 0; k < 8; ++k) {
      float acc = kB.m[k * 8] * in[y * 8];
      for (int n = 1; n < 8; ++n)
        acc = std::fma(kB.m[k * 8 + n], in[y * 8 + n], acc);
      tmp[y * 8 + k] = acc;
    }
  for (int x = 0; x < 8; ++x)
    for (int k = 0; k < 8; ++k) {
      float acc = kB.m[k * 8] * tmp[x];
      for (int n = 1; n < 8; ++n)
        acc = std::fma(kB.m[k * 8 + n], tmp[n * 8 + x], acc);
      out[k * 8 + x] = acc;
    }
}

void idct8x8_scalar(const float* in, float* out) {
  float tmp[64];
  for (int x = 0; x < 8; ++x)
    for (int n = 0; n < 8; ++n) {
      float acc = kB.m[n] * in[x];
      for (int k = 1; k < 8; ++k)
        acc = std::fma(kB.m[k * 8 + n], in[k * 8 + x], acc);
      tmp[n * 8 + x] = acc;
    }
  for (int y = 0; y < 8; ++y)
    for (int n = 0; n < 8; ++n) {
      float acc = kB.m[n] * tmp[y * 8];
      for (int k = 1; k < 8; ++k)
        acc = std::fma(kB.m[k * 8 + n], tmp[y * 8 + k], acc);
      out[y * 8 + n] = acc;
    }
}

void dequant_idct8x8_scalar(const std::int32_t* levels, const float* steps,
                            float* out) {
  // Same op sequence as dequantize_block followed by idct8x8 — the fusion
  // only saves the intermediate Block8 round-trip, not any float op.
  float coeffs[64];
  for (int i = 0; i < 64; ++i)
    coeffs[i] = static_cast<float>(levels[i]) * steps[i];
  idct8x8_scalar(coeffs, out);
}

void quantize_block_scalar(const float* coeffs, const float* steps,
                           std::int32_t* levels) {
  for (int i = 0; i < 64; ++i)
    levels[i] = static_cast<std::int32_t>(std::lround(coeffs[i] / steps[i]));
}

void dequantize_block_scalar(const std::int32_t* levels, const float* steps,
                             float* coeffs) {
  for (int i = 0; i < 64; ++i)
    coeffs[i] = static_cast<float>(levels[i]) * steps[i];
}

constexpr int kMR = 6;   // register tile rows
constexpr int kNR = 16;  // register tile columns (two 8-lane vectors)

// The register tile, up to 6x16: one fma per (row, column) and k step in
// ascending k order.
void gemm_tile_scalar(const float* A, std::size_t a_rs, std::size_t a_ks,
                      const float* B, std::size_t ldb, float* C,
                      std::size_t ldc, int mr, int nr, int kn) {
  float acc[kMR][kNR];
  for (int r = 0; r < mr; ++r)
    for (int c = 0; c < nr; ++c) acc[r][c] = C[r * ldc + c];
  for (int kk = 0; kk < kn; ++kk) {
    const float* b = B + static_cast<std::size_t>(kk) * ldb;
    for (int r = 0; r < mr; ++r) {
      const float a = A[r * a_rs + static_cast<std::size_t>(kk) * a_ks];
      for (int c = 0; c < nr; ++c) acc[r][c] = std::fma(a, b[c], acc[r][c]);
    }
  }
  for (int r = 0; r < mr; ++r)
    for (int c = 0; c < nr; ++c) C[r * ldc + c] = acc[r][c];
}

void im2col_row_scalar(const float* src, int H, int W, int oh, int ow,
                       int stride, int pad, int ky, int kx, float* dst) {
  for (int y = 0; y < oh; ++y) {
    const int sy = y * stride + ky - pad;
    for (int x = 0; x < ow; ++x) {
      const int sx = x * stride + kx - pad;
      dst[y * ow + x] =
          (sy >= 0 && sy < H && sx >= 0 && sx < W) ? src[sy * W + sx] : 0.0f;
    }
  }
}

// Each output is one accumulator from +0 with one fma per (c, ky, kx) term
// in ascending order, border taps included, then + bias, then the clamp:
// the im2col + gemm_tile + epilogue sequence. Pixels go in runs of kRun so
// the chains of neighbouring pixels interleave; the order within each chain
// does not change.
void conv3x3_scalar(const float* in, std::size_t in_rs, int c, int h, int w,
                    const float* wt, const float* bias, int o, bool relu,
                    int y0, int y1, float* out) {
  constexpr int kRun = 16;
  const std::size_t in_ps = static_cast<std::size_t>(h + 2) * in_rs;
  const std::size_t out_ps = static_cast<std::size_t>(h) * w;
  const std::size_t w_rs = static_cast<std::size_t>(9) * c;
  for (int k = 0; k < o; ++k)
    for (int y = y0; y < y1; ++y)
      for (int x0 = 0; x0 < w; x0 += kRun) {
        const int n = std::min(kRun, w - x0);
        float acc[kRun];
        for (int j = 0; j < n; ++j) acc[j] = 0.0f;
        for (int ci = 0; ci < c; ++ci)
          for (int ky = 0; ky < 3; ++ky) {
            const float* row = in + ci * in_ps +
                               static_cast<std::size_t>(y + ky) * in_rs + x0;
            for (int kx = 0; kx < 3; ++kx) {
              const float wv = wt[k * w_rs + static_cast<std::size_t>(ci) * 9 +
                                  static_cast<std::size_t>(ky) * 3 + kx];
              for (int j = 0; j < n; ++j)
                acc[j] = std::fma(wv, row[j + kx], acc[j]);
            }
          }
        float* dst = out + k * out_ps + static_cast<std::size_t>(y) * w + x0;
        for (int j = 0; j < n; ++j) {
          const float v = acc[j] + bias[k];
          dst[j] = relu ? (v > 0.0f ? v : 0.0f) : v;
        }
      }
}

// The dot tile of the im2col + GEMM weight gradient over an implicit
// column: eight lane sums over the flattened output index, each product
// rounded before its add, then the lanes in series, the tail, and the add
// into dwt. (y, x) walks the output pixels in raster order alongside i.
void conv3x3_dw_scalar(const float* in, std::size_t in_rs, int c, int h,
                       int w, const float* dy, int o, float* dwt) {
  const std::size_t in_ps = static_cast<std::size_t>(h + 2) * in_rs;
  const int n = h * w;
  const int n8 = n - n % 8;
  for (int k = 0; k < o; ++k) {
    const float* g = dy + static_cast<std::size_t>(k) * n;
    for (int ci = 0; ci < c; ++ci)
      for (int ky = 0; ky < 3; ++ky)
        for (int kx = 0; kx < 3; ++kx) {
          const float* p = in + ci * in_ps + static_cast<std::size_t>(ky) * in_rs + kx;
          float acc[8] = {};
          int i = 0, y = 0, x = 0;
          const auto term = [&] {
            const float v = g[i] * p[static_cast<std::size_t>(y) * in_rs + x];
            if (++x == w) x = 0, ++y;
            return v;
          };
          for (; i < n8; ++i) acc[i % 8] += term();
          float s = 0.0f;
          for (int l = 0; l < 8; ++l) s += acc[l];
          for (; i < n; ++i) s += term();
          dwt[static_cast<std::size_t>(k) * 9 * c + ci * 9 + ky * 3 + kx] += s;
        }
  }
}

// col2im of the transposed-weight GEMM, gathered per input pixel: one fma
// chain from +0 per tap, the taps added in (ky, kx) order into a sum from +0.
void conv3x3_dx_scalar(const float* dy, std::size_t dy_rs, int o, int h,
                       int w, const float* wt, int c, int c0, int c1,
                       float* dx) {
  const std::size_t dy_ps = static_cast<std::size_t>(h + 2) * dy_rs;
  const std::size_t w_rs = static_cast<std::size_t>(9) * c;
  for (int ci = c0; ci < c1; ++ci)
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        float acc = 0.0f;
        for (int ky = 0; ky < 3; ++ky)
          for (int kx = 0; kx < 3; ++kx) {
            const float* p = dy + static_cast<std::size_t>(y + 2 - ky) * dy_rs +
                             (x + 2 - kx);
            const float* wk = wt + static_cast<std::size_t>(ci) * 9 + ky * 3 + kx;
            float t = 0.0f;
            for (int k = 0; k < o; ++k)
              t = std::fma(wk[k * w_rs], p[k * dy_ps], t);
            acc += t;
          }
        dx[(static_cast<std::size_t>(ci) * h + y) * w + x] = acc;
      }
}

void row_sum_scalar(const float* x, int rows, int n, float* out) {
  for (int r = 0; r < rows; ++r) {
    const float* row = x + static_cast<std::size_t>(r) * n;
    float s = 0.0f;
    for (int i = 0; i < n; ++i) s += row[i];
    out[r] += s;
  }
}

void yuv_to_rgb_row_scalar(const float* yrow, const float* u0, const float* u1,
                           const float* v0, const float* v1, float fy, int W,
                           int cw, float* r, float* g, float* b) {
  for (int x = 0; x < W; ++x) yuv_rgb_pixel(yrow, u0, u1, v0, v1, fy, cw, x, r, g, b);
}

void rgb_to_yuv_row_scalar(const float* r, const float* g, const float* b,
                           int W, float* yrow, float* uf, float* vf) {
  for (int x = 0; x < W; ++x) rgb_yuv_pixel(r, g, b, x, yrow, uf, vf);
}

void chroma_box_row_scalar(const float* f0, const float* f1, int w,
                           float* out) {
  for (int x = 0; x < w / 2; ++x)
    out[x] = 0.25f * (f0[2 * x] + f0[2 * x + 1] + f1[2 * x] + f1[2 * x + 1]);
}

KernelTable make_scalar_table() noexcept {
  KernelTable t{};
  t.dct8x8 = &dct8x8_scalar;
  t.idct8x8 = &idct8x8_scalar;
  t.dequant_idct8x8 = &dequant_idct8x8_scalar;
  t.quantize_block = &quantize_block_scalar;
  t.dequantize_block = &dequantize_block_scalar;
  t.gemm_tile = &gemm_tile_scalar;
  t.im2col_row = &im2col_row_scalar;
  t.conv3x3 = &conv3x3_scalar;
  t.conv3x3_dw = &conv3x3_dw_scalar;
  t.conv3x3_dx = &conv3x3_dx_scalar;
  t.row_sum = &row_sum_scalar;
  t.yuv_to_rgb_row = &yuv_to_rgb_row_scalar;
  t.rgb_to_yuv_row = &rgb_to_yuv_row_scalar;
  t.chroma_box_row = &chroma_box_row_scalar;
  t.id = Backend::kScalar;
  for (int f = 0; f < kNumFamilies; ++f) t.origin[f] = Backend::kScalar;
  return t;
}

}  // namespace

const KernelTable& scalar_table() noexcept {
  static const KernelTable t = make_scalar_table();
  return t;
}

const float* dct_basis() noexcept { return kB.m; }
const float* dct_basis_t() noexcept { return kB.mt; }

}  // namespace dcsr::simd

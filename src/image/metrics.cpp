#include "image/metrics.hpp"

#include <cmath>
#include <stdexcept>

#include "image/convert.hpp"

namespace dcsr {

namespace {

double plane_mse(const Plane& a, const Plane& b) {
  if (!a.same_size(b)) throw std::invalid_argument("metrics: plane size mismatch");
  double acc = 0.0;
  const std::size_t n = a.size();
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(pa[i]) - static_cast<double>(pb[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(n);
}

double mse_to_psnr(double mse) {
  if (mse <= 1e-10) return 100.0;
  return 10.0 * std::log10(1.0 / mse);
}

Plane luma_of(const FrameRGB& f) {
  Plane out(f.width(), f.height());
  for (int y = 0; y < f.height(); ++y)
    for (int x = 0; x < f.width(); ++x)
      out.at(x, y) = rgb_to_luma(f.r.at(x, y), f.g.at(x, y), f.b.at(x, y));
  return out;
}

}  // namespace

double psnr(const Plane& a, const Plane& b) { return mse_to_psnr(plane_mse(a, b)); }

double psnr(const FrameRGB& a, const FrameRGB& b) {
  // plane_mse of r, g and b in one pass: three independent accumulators,
  // each summing its channel in plane_mse's order, so every bit matches
  // three separate passes while the three addition chains overlap.
  if (!a.r.same_size(b.r) || !a.g.same_size(b.g) || !a.b.same_size(b.b) ||
      !a.r.same_size(a.g) || !a.r.same_size(a.b))
    throw std::invalid_argument("metrics: plane size mismatch");
  double acc_r = 0.0, acc_g = 0.0, acc_b = 0.0;
  const std::size_t n = a.r.size();
  const float *ar = a.r.data(), *ag = a.g.data(), *ab = a.b.data();
  const float *br = b.r.data(), *bg = b.g.data(), *bb = b.b.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double dr = static_cast<double>(ar[i]) - static_cast<double>(br[i]);
    const double dg = static_cast<double>(ag[i]) - static_cast<double>(bg[i]);
    const double db = static_cast<double>(ab[i]) - static_cast<double>(bb[i]);
    acc_r += dr * dr;
    acc_g += dg * dg;
    acc_b += db * db;
  }
  const auto count = static_cast<double>(n);
  return mse_to_psnr((acc_r / count + acc_g / count + acc_b / count) / 3.0);
}

double psnr_luma(const FrameYUV& a, const FrameYUV& b) { return psnr(a.y, b.y); }

namespace {

constexpr int kSsimWin = 8;
// Dense sliding window with stride 4 — dense enough to be stable, cheap
// enough to run inside per-frame loops of the quality benches.
constexpr int kSsimStride = 4;

// Adds the SSIM of the `Lanes` horizontally adjacent windows at
// (wx + l * stride, wy) to `total`, in window order. Each window has its own
// accumulators and sums its samples in (y, x) order, so every window's value
// is the one a window-at-a-time loop computes; the windows' addition chains
// run side by side.
template <int Lanes>
void add_window_ssims(const Plane& a, const Plane& b, int wx, int wy, double& total) {
  constexpr double kC1 = 0.01 * 0.01;  // (K1 * L)^2 with L = 1
  constexpr double kC2 = 0.03 * 0.03;
  constexpr double kN = kSsimWin * kSsimWin;
  const auto row = static_cast<std::size_t>(a.width());
  const float* pa = a.ptr(wx, wy);
  const float* pb = b.ptr(wx, wy);
  // The windows' samples with the lane innermost, ta[y][x][l] = a at
  // (wx + l * stride + x, wy + y), so each (y, x) step adds one contiguous
  // group of `Lanes` values (a copy: no float operation changes).
  float ta[kSsimWin][kSsimWin][Lanes], tb[kSsimWin][kSsimWin][Lanes];
  for (int y = 0; y < kSsimWin; ++y)
    for (int l = 0; l < Lanes; ++l)
      for (int x = 0; x < kSsimWin; ++x) {
        ta[y][x][l] = pa[y * row + l * kSsimStride + x];
        tb[y][x][l] = pb[y * row + l * kSsimStride + x];
      }
  double ma[Lanes] = {}, mb[Lanes] = {};
  for (int y = 0; y < kSsimWin; ++y)
    for (int x = 0; x < kSsimWin; ++x)
      for (int l = 0; l < Lanes; ++l) {
        ma[l] += ta[y][x][l];
        mb[l] += tb[y][x][l];
      }
  for (int l = 0; l < Lanes; ++l) {
    ma[l] /= kN;
    mb[l] /= kN;
  }
  double va[Lanes] = {}, vb[Lanes] = {}, cov[Lanes] = {};
  for (int y = 0; y < kSsimWin; ++y)
    for (int x = 0; x < kSsimWin; ++x)
      for (int l = 0; l < Lanes; ++l) {
        const double da = ta[y][x][l] - ma[l];
        const double db = tb[y][x][l] - mb[l];
        va[l] += da * da;
        vb[l] += db * db;
        cov[l] += da * db;
      }
  for (int l = 0; l < Lanes; ++l) {
    va[l] /= kN - 1;
    vb[l] /= kN - 1;
    cov[l] /= kN - 1;
    const double num = (2 * ma[l] * mb[l] + kC1) * (2 * cov[l] + kC2);
    const double den = (ma[l] * ma[l] + mb[l] * mb[l] + kC1) * (va[l] + vb[l] + kC2);
    total += num / den;
  }
}

}  // namespace

double ssim(const Plane& a, const Plane& b) {
  if (!a.same_size(b)) throw std::invalid_argument("ssim: plane size mismatch");
  const int W = a.width(), H = a.height();
  if (W < kSsimWin || H < kSsimWin) throw std::invalid_argument("ssim: plane too small");

  constexpr int kLanes = 4;
  double total = 0.0;
  long count = 0;
  for (int wy = 0; wy + kSsimWin <= H; wy += kSsimStride) {
    int wx = 0;
    for (; wx + (kLanes - 1) * kSsimStride + kSsimWin <= W; wx += kLanes * kSsimStride)
      add_window_ssims<kLanes>(a, b, wx, wy, total);
    for (; wx + kSsimWin <= W; wx += kSsimStride) add_window_ssims<1>(a, b, wx, wy, total);
    count += (W - kSsimWin) / kSsimStride + 1;
  }
  return total / static_cast<double>(count);
}

double ssim(const FrameRGB& a, const FrameRGB& b) {
  return ssim(luma_of(a), luma_of(b));
}

}  // namespace dcsr

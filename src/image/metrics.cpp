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

double ssim(const Plane& a, const Plane& b) {
  if (!a.same_size(b)) throw std::invalid_argument("ssim: plane size mismatch");
  constexpr int kWin = 8;
  constexpr double kC1 = 0.01 * 0.01;  // (K1 * L)^2 with L = 1
  constexpr double kC2 = 0.03 * 0.03;
  const int W = a.width(), H = a.height();
  if (W < kWin || H < kWin) throw std::invalid_argument("ssim: plane too small");

  double total = 0.0;
  long count = 0;
  // Dense sliding window with stride 4 — dense enough to be stable, cheap
  // enough to run inside per-frame loops of the quality benches.
  constexpr int kStride = 4;
  for (int wy = 0; wy + kWin <= H; wy += kStride) {
    for (int wx = 0; wx + kWin <= W; wx += kStride) {
      double ma = 0.0, mb = 0.0;
      for (int y = 0; y < kWin; ++y)
        for (int x = 0; x < kWin; ++x) {
          ma += a.at(wx + x, wy + y);
          mb += b.at(wx + x, wy + y);
        }
      constexpr double kN = kWin * kWin;
      ma /= kN;
      mb /= kN;
      double va = 0.0, vb = 0.0, cov = 0.0;
      for (int y = 0; y < kWin; ++y)
        for (int x = 0; x < kWin; ++x) {
          const double da = a.at(wx + x, wy + y) - ma;
          const double db = b.at(wx + x, wy + y) - mb;
          va += da * da;
          vb += db * db;
          cov += da * db;
        }
      va /= kN - 1;
      vb /= kN - 1;
      cov /= kN - 1;
      const double num = (2 * ma * mb + kC1) * (2 * cov + kC2);
      const double den = (ma * ma + mb * mb + kC1) * (va + vb + kC2);
      total += num / den;
      ++count;
    }
  }
  return total / static_cast<double>(count);
}

double ssim(const FrameRGB& a, const FrameRGB& b) {
  return ssim(luma_of(a), luma_of(b));
}

}  // namespace dcsr

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "image/convert.hpp"
#include "image/frame.hpp"
#include "image/metrics.hpp"
#include "image/resize.hpp"
#include "util/rng.hpp"

namespace dcsr {
namespace {

FrameRGB random_frame(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  FrameRGB f(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      f.r.at(x, y) = static_cast<float>(rng.uniform());
      f.g.at(x, y) = static_cast<float>(rng.uniform());
      f.b.at(x, y) = static_cast<float>(rng.uniform());
    }
  return f;
}

// Smooth frame: low-frequency content that chroma subsampling barely hurts.
FrameRGB smooth_frame(int w, int h) {
  FrameRGB f(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const float u = static_cast<float>(x) / static_cast<float>(w);
      const float v = static_cast<float>(y) / static_cast<float>(h);
      f.r.at(x, y) = 0.3f + 0.4f * u;
      f.g.at(x, y) = 0.5f - 0.2f * v;
      f.b.at(x, y) = 0.4f + 0.2f * u * v;
    }
  return f;
}

TEST(Plane, ClampedAccessReadsEdges) {
  Plane p(2, 2);
  p.at(0, 0) = 1.0f;
  p.at(1, 1) = 2.0f;
  EXPECT_EQ(p.at_clamped(-5, -5), 1.0f);
  EXPECT_EQ(p.at_clamped(7, 9), 2.0f);
}

TEST(Plane, Clamp01) {
  Plane p(2, 1);
  p.at(0, 0) = -0.5f;
  p.at(1, 0) = 1.5f;
  p.clamp01();
  EXPECT_EQ(p.at(0, 0), 0.0f);
  EXPECT_EQ(p.at(1, 0), 1.0f);
}

TEST(FrameTensor, RoundTrip) {
  const FrameRGB f = random_frame(6, 4, 1);
  const FrameRGB* in = &f;
  Tensor t;
  frames_to_tensor_into(&in, 1, t);
  EXPECT_EQ(t.shape(), (Shape{1, 3, 4, 6}));
  FrameRGB g;
  FrameRGB* out = &g;
  tensor_to_frames_into(t, &out);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 6; ++x) {
      EXPECT_FLOAT_EQ(f.r.at(x, y), g.r.at(x, y));
      EXPECT_FLOAT_EQ(f.g.at(x, y), g.g.at(x, y));
      EXPECT_FLOAT_EQ(f.b.at(x, y), g.b.at(x, y));
    }
}

TEST(Convert, LumaWeightsSumToOne) {
  EXPECT_NEAR(rgb_to_luma(1.0f, 1.0f, 1.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(rgb_to_luma(0.0f, 0.0f, 0.0f), 0.0f, 1e-6f);
}

TEST(Convert, GrayRoundTripsExactly) {
  // Gray pixels have neutral chroma, so 4:2:0 subsampling is lossless.
  FrameRGB f(8, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      const float v = static_cast<float>(x + y) / 14.0f;
      f.r.at(x, y) = f.g.at(x, y) = f.b.at(x, y) = v;
    }
  const FrameRGB g = yuv420_to_rgb(rgb_to_yuv420(f));
  EXPECT_GT(psnr(f, g), 45.0);
}

TEST(Convert, SmoothContentRoundTripsWell) {
  const FrameRGB f = smooth_frame(32, 32);
  const FrameRGB g = yuv420_to_rgb(rgb_to_yuv420(f));
  EXPECT_GT(psnr(f, g), 38.0);
}

TEST(Convert, ChromaPlanesAreHalfSize) {
  const FrameYUV yuv = rgb_to_yuv420(random_frame(16, 8, 2));
  EXPECT_EQ(yuv.y.width(), 16);
  EXPECT_EQ(yuv.u.width(), 8);
  EXPECT_EQ(yuv.u.height(), 4);
}

TEST(Convert, AllPlanesInUnitRange) {
  const FrameYUV yuv = rgb_to_yuv420(random_frame(16, 16, 3));
  auto check = [](const Plane& p) {
    for (int y = 0; y < p.height(); ++y)
      for (int x = 0; x < p.width(); ++x) {
        EXPECT_GE(p.at(x, y), 0.0f);
        EXPECT_LE(p.at(x, y), 1.0f);
      }
  };
  check(yuv.y);
  check(yuv.u);
  check(yuv.v);
}

TEST(Resize, BilinearPreservesConstant) {
  Plane p(8, 8);
  p.fill(0.7f);
  const Plane q = resize_bilinear(p, 5, 11);
  for (int y = 0; y < q.height(); ++y)
    for (int x = 0; x < q.width(); ++x) EXPECT_NEAR(q.at(x, y), 0.7f, 1e-6f);
}

TEST(Resize, BicubicPreservesConstant) {
  Plane p(8, 8);
  p.fill(0.3f);
  const Plane q = resize_bicubic(p, 16, 16);
  for (int y = 0; y < q.height(); ++y)
    for (int x = 0; x < q.width(); ++x) EXPECT_NEAR(q.at(x, y), 0.3f, 1e-5f);
}

TEST(Resize, UpThenDownApproximatesIdentityOnSmoothContent) {
  const FrameRGB f = smooth_frame(16, 16);
  const FrameRGB up = resize(f, 32, 32);
  const FrameRGB back = resize(up, 16, 16);
  EXPECT_GT(psnr(f, back), 40.0);
}

TEST(Resize, BoxDownscaleAveragesBlocks) {
  Plane p(4, 4);
  p.at(0, 0) = 1.0f;  // others zero in the top-left 2x2 block
  const Plane q = downscale_box(p, 2);
  EXPECT_EQ(q.width(), 2);
  EXPECT_FLOAT_EQ(q.at(0, 0), 0.25f);
  EXPECT_FLOAT_EQ(q.at(1, 1), 0.0f);
}

TEST(Resize, BoxDownscaleRejectsNonDivisible) {
  EXPECT_THROW(downscale_box(Plane(5, 4), 2), std::invalid_argument);
}

TEST(Metrics, PsnrIdenticalIsCapped) {
  const FrameRGB f = random_frame(8, 8, 4);
  EXPECT_DOUBLE_EQ(psnr(f, f), 100.0);
}

TEST(Metrics, PsnrKnownValue) {
  Plane a(4, 4), b(4, 4);
  b.fill(0.1f);  // MSE = 0.01 -> PSNR = 20 dB
  EXPECT_NEAR(psnr(a, b), 20.0, 1e-5);
}

TEST(Metrics, RgbPsnrIsTheMeanOfPerPlaneMses) {
  // psnr(FrameRGB) sums r, g and b in one pass; each channel's sum must keep
  // its own serial order, so the result is bit-equal to three plane passes.
  const FrameRGB a = random_frame(37, 21, 11), b = random_frame(37, 21, 12);
  const auto mse = [](const Plane& p, const Plane& q) {
    double acc = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double d = static_cast<double>(p.data()[i]) - q.data()[i];
      acc += d * d;
    }
    return acc / static_cast<double>(p.size());
  };
  const double m = (mse(a.r, b.r) + mse(a.g, b.g) + mse(a.b, b.b)) / 3.0;
  EXPECT_EQ(psnr(a, b), 10.0 * std::log10(1.0 / m));
}

TEST(Metrics, PsnrDecreasesWithNoise) {
  const FrameRGB f = smooth_frame(16, 16);
  Rng rng(5);
  FrameRGB n1 = f, n2 = f;
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) {
      n1.r.at(x, y) += static_cast<float>(rng.normal(0, 0.01));
      n2.r.at(x, y) += static_cast<float>(rng.normal(0, 0.1));
    }
  EXPECT_GT(psnr(f, n1), psnr(f, n2));
}

TEST(Metrics, SsimIdenticalIsOne) {
  const FrameRGB f = random_frame(16, 16, 6);
  EXPECT_NEAR(ssim(f, f), 1.0, 1e-9);
}

TEST(Metrics, SsimOrdersDegradationsLikePsnr) {
  const FrameRGB f = smooth_frame(32, 32);
  Rng rng(7);
  FrameRGB mild = f, severe = f;
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) {
      const auto e1 = static_cast<float>(rng.normal(0, 0.02));
      const auto e2 = static_cast<float>(rng.normal(0, 0.2));
      mild.r.at(x, y) = std::clamp(mild.r.at(x, y) + e1, 0.0f, 1.0f);
      severe.r.at(x, y) = std::clamp(severe.r.at(x, y) + e2, 0.0f, 1.0f);
    }
  EXPECT_GT(ssim(f, mild), ssim(f, severe));
  EXPECT_LT(ssim(f, severe), 1.0);
}

// The window-at-a-time SSIM loop ssim(Plane, Plane) computed before it
// ran adjacent windows side by side: the oracle for its bit pattern.
double ssim_one_window_at_a_time(const Plane& a, const Plane& b) {
  constexpr int kWin = 8;
  constexpr double kC1 = 0.01 * 0.01;
  constexpr double kC2 = 0.03 * 0.03;
  constexpr int kStride = 4;
  const int W = a.width(), H = a.height();
  double total = 0.0;
  long count = 0;
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

TEST(Metrics, SsimMatchesWindowAtATimeLoopBitForBit) {
  // Widths give 1, 2, 3, 4, 5, 7, 11 and 79 windows per row: every count of
  // leftover windows after the groups of 4, and one row with none.
  const int widths[] = {8, 12, 16, 20, 24, 33, 50, 320};
  const int heights[] = {8, 13, 21};
  std::uint64_t seed = 40;
  for (const int w : widths)
    for (const int h : heights) {
      const FrameRGB fa = random_frame(w, h, ++seed);
      FrameRGB fb = fa;
      Rng rng(++seed);
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
          fb.r.at(x, y) += static_cast<float>(rng.normal(0, 0.05));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ssim(fa.r, fb.r)),
                std::bit_cast<std::uint64_t>(ssim_one_window_at_a_time(fa.r, fb.r)))
          << w << "x" << h;
    }
}

TEST(Metrics, MismatchedSizesThrow) {
  EXPECT_THROW(psnr(Plane(4, 4), Plane(5, 4)), std::invalid_argument);
}

TEST(Metrics, PsnrLumaUsesOnlyY) {
  FrameYUV a(16, 16), b(16, 16);
  b.u.fill(0.9f);  // chroma-only difference
  EXPECT_DOUBLE_EQ(psnr_luma(a, b), 100.0);
  b.y.fill(0.5f);
  EXPECT_LT(psnr_luma(a, b), 100.0);
}

}  // namespace
}  // namespace dcsr

#pragma once

#include "image/frame.hpp"

namespace dcsr {

/// PSNR in dB between two same-sized planes (MAX = 1.0). Identical planes
/// return +inf capped at 100 dB, the convention used when reporting lossless
/// reconstructions.
double psnr(const Plane& a, const Plane& b);

/// PSNR over an RGB frame (MSE pooled across the three channels).
double psnr(const FrameRGB& a, const FrameRGB& b);

/// PSNR over the luma of two YUV frames — the metric the paper's Fig. 9(a)
/// reports (video PSNR is conventionally luma PSNR).
double psnr_luma(const FrameYUV& a, const FrameYUV& b);

/// Structural similarity (Wang et al. 2004) on a single plane, computed with
/// the standard 8x8 sliding window and C1/C2 stabilisers for unit dynamic
/// range. Returns the mean SSIM over all windows.
double ssim(const Plane& a, const Plane& b);

/// SSIM on luma of RGB frames (the Fig. 9(b) metric).
double ssim(const FrameRGB& a, const FrameRGB& b);

}  // namespace dcsr

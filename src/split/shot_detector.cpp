#include "split/shot_detector.hpp"

#include <algorithm>
#include <cmath>

#include "image/convert.hpp"
#include "image/resize.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::split {

namespace {

Plane luma_thumb(const FrameRGB& f, int thumb_w) {
  Plane luma(f.width(), f.height());
  for (int y = 0; y < f.height(); ++y)
    for (int x = 0; x < f.width(); ++x)
      luma.at(x, y) = rgb_to_luma(f.r.at(x, y), f.g.at(x, y), f.b.at(x, y));
  const int thumb_h =
      std::max(1, f.height() * thumb_w / std::max(1, f.width()));
  return resize_bilinear(luma, thumb_w, thumb_h);
}

double mean_abs_diff(const Plane& a, const Plane& b) {
  double acc = 0.0;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x)
      acc += std::abs(a.at(x, y) - b.at(x, y));
  return acc / static_cast<double>(a.size());
}

}  // namespace

std::vector<double> frame_differences(const VideoSource& video,
                                      const ShotDetectorConfig& cfg) {
  std::vector<double> diffs(static_cast<std::size_t>(video.frame_count()), 0.0);
  if (video.frame_count() < 2) return diffs;
  double* out = diffs.data();
  // Frames render concurrently: a chunk of frames [lo, hi) thumbnails frame
  // lo - 1 itself and writes diffs[lo, hi), holding two thumbnails at once.
  parallel_for_writes(
      1, video.frame_count(), 16,
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(out + lo, static_cast<std::size_t>(hi - lo));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        Plane prev =
            luma_thumb(video.frame(static_cast<int>(lo - 1)), cfg.thumb_width);
        for (std::int64_t i = lo; i < hi; ++i) {
          Plane cur = luma_thumb(video.frame(static_cast<int>(i)), cfg.thumb_width);
          out[i] = mean_abs_diff(prev, cur);
          prev = std::move(cur);
        }
      },
      "split/shot_detector.cpp:frame_differences");
  return diffs;
}

std::vector<int> detect_shots(const VideoSource& video,
                              const ShotDetectorConfig& cfg) {
  const auto diffs = frame_differences(video, cfg);
  std::vector<int> boundaries{0};
  for (int i = 1; i < static_cast<int>(diffs.size()); ++i)
    if (diffs[static_cast<std::size_t>(i)] > cfg.threshold) boundaries.push_back(i);
  return boundaries;
}

}  // namespace dcsr::split

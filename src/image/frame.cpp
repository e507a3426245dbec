#include "image/frame.hpp"

#include <algorithm>
#include <stdexcept>

namespace dcsr {

void Plane::clamp01() noexcept {
  for (auto& p : data_) p = std::clamp(p, 0.0f, 1.0f);
}

void frames_to_tensor_into(const FrameRGB* const* frames, int n, Tensor& t) {
  if (n <= 0) throw std::invalid_argument("frames_to_tensor: empty batch");
  const int H = frames[0]->height(), W = frames[0]->width();
  for (int i = 0; i < n; ++i)
    if (frames[i]->width() != W || frames[i]->height() != H)
      throw std::invalid_argument(
          "frames_to_tensor: mixed frame geometry in batch");
  t.reset({n, 3, H, W});
  for (int i = 0; i < n; ++i) {
    const FrameRGB& f = *frames[i];
    const Plane* planes[3] = {&f.r, &f.g, &f.b};
    for (int c = 0; c < 3; ++c)
      for (int y = 0; y < H; ++y)
        for (int x = 0; x < W; ++x) t.at(i, c, y, x) = planes[c]->at(x, y);
  }
}

void tensor_to_frames_into(const Tensor& t, FrameRGB* const* frames) {
  if (t.rank() != 4 || t.dim(1) != 3)
    throw std::invalid_argument("tensor_to_frames: expected Nx3xHxW");
  const int N = t.dim(0), H = t.dim(2), W = t.dim(3);
  for (int i = 0; i < N; ++i) {
    FrameRGB& f = *frames[i];
    f.r.reset(W, H);
    f.g.reset(W, H);
    f.b.reset(W, H);
    Plane* planes[3] = {&f.r, &f.g, &f.b};
    for (int c = 0; c < 3; ++c)
      for (int y = 0; y < H; ++y)
        for (int x = 0; x < W; ++x)
          planes[c]->at(x, y) = std::clamp(t.at(i, c, y, x), 0.0f, 1.0f);
  }
}

}  // namespace dcsr

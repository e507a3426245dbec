#include "codec/motion.hpp"

#include <cmath>
#include <cstddef>

namespace dcsr::codec {

namespace {

// A half-pel block's integer origin and phase: (2 * (bx + x) + mv.x) >> 1 is
// bx + x + (mv.x >> 1) and (2 * (bx + x) + mv.x) & 1 is mv.x & 1, so every
// sample of the block shares one phase and its footprint is
// [x0, x0 + size + fx) x [y0, y0 + size + fy).
struct Footprint {
  int x0, y0, fx, fy;
};

Footprint footprint(int bx, int by, MotionVector mv) noexcept {
  return {bx + (mv.x >> 1), by + (mv.y >> 1), mv.x & 1, mv.y & 1};
}

bool inside(const Plane& p, Footprint f, int size) noexcept {
  return p.contains(f.x0, f.y0, size + f.fx, size + f.fy);
}

// One sample at phase (FX, FY) of the row at `r`, the next row `w` floats
// on: sample_halfpel's expression, summed in its order.
template <int FX, int FY>
float halfpel_at(const float* r, std::ptrdiff_t w, int x) noexcept {
  if constexpr (FX == 0 && FY == 0) return r[x];
  else if constexpr (FY == 0) return 0.5f * (r[x] + r[x + 1]);
  else if constexpr (FX == 0) return 0.5f * (r[x] + r[x + w]);
  else return 0.25f * (r[x] + r[x + 1] + r[x + w] + r[x + w + 1]);
}

template <int FX, int FY>
void predict_rows(const float* r, std::ptrdiff_t w, int size, float* dst,
                  int stride) noexcept {
  for (int y = 0; y < size; ++y, r += w, dst += stride)
    for (int x = 0; x < size; ++x) dst[x] = halfpel_at<FX, FY>(r, w, x);
}

template <int FX, int FY>
float sad_rows(const float* c, std::ptrdiff_t cw, const float* r,
               std::ptrdiff_t w, int size) noexcept {
  float acc = 0.0f;
  for (int y = 0; y < size; ++y, c += cw, r += w)
    for (int x = 0; x < size; ++x)
      acc += std::abs(c[x] - halfpel_at<FX, FY>(r, w, x));
  return acc;
}

}  // namespace

float sample_halfpel(const Plane& p, int x2, int y2) noexcept {
  const int x0 = x2 >> 1, y0 = y2 >> 1;
  const bool fx = x2 & 1, fy = y2 & 1;
  if (!fx && !fy) return p.at_clamped(x0, y0);
  if (fx && !fy)
    return 0.5f * (p.at_clamped(x0, y0) + p.at_clamped(x0 + 1, y0));
  if (!fx && fy)
    return 0.5f * (p.at_clamped(x0, y0) + p.at_clamped(x0, y0 + 1));
  return 0.25f * (p.at_clamped(x0, y0) + p.at_clamped(x0 + 1, y0) +
                  p.at_clamped(x0, y0 + 1) + p.at_clamped(x0 + 1, y0 + 1));
}

void predict_block_halfpel(const Plane& ref, int bx, int by, int size,
                           MotionVector mv, float* dst, int stride) noexcept {
  const Footprint f = footprint(bx, by, mv);
  if (!inside(ref, f, size)) {
    for (int y = 0; y < size; ++y)
      for (int x = 0; x < size; ++x)
        dst[y * stride + x] =
            sample_halfpel(ref, 2 * (bx + x) + mv.x, 2 * (by + y) + mv.y);
    return;
  }
  const float* r = ref.ptr(f.x0, f.y0);
  const std::ptrdiff_t w = ref.width();
  switch (f.fx + 2 * f.fy) {
    case 0: return predict_rows<0, 0>(r, w, size, dst, stride);
    case 1: return predict_rows<1, 0>(r, w, size, dst, stride);
    case 2: return predict_rows<0, 1>(r, w, size, dst, stride);
    default: return predict_rows<1, 1>(r, w, size, dst, stride);
  }
}

float block_sad_halfpel(const Plane& cur, const Plane& ref, int bx, int by,
                        int size, MotionVector mv_halfpel) noexcept {
  const Footprint f = footprint(bx, by, mv_halfpel);
  if (cur.contains(bx, by, size, size) && inside(ref, f, size)) {
    const float* c = cur.ptr(bx, by);
    const float* r = ref.ptr(f.x0, f.y0);
    const std::ptrdiff_t cw = cur.width(), w = ref.width();
    switch (f.fx + 2 * f.fy) {
      case 0: return sad_rows<0, 0>(c, cw, r, w, size);
      case 1: return sad_rows<1, 0>(c, cw, r, w, size);
      case 2: return sad_rows<0, 1>(c, cw, r, w, size);
      default: return sad_rows<1, 1>(c, cw, r, w, size);
    }
  }
  float acc = 0.0f;
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x)
      acc += std::abs(cur.at_clamped(bx + x, by + y) -
                      sample_halfpel(ref, 2 * (bx + x) + mv_halfpel.x,
                                     2 * (by + y) + mv_halfpel.y));
  return acc;
}

MotionVector refine_halfpel(const Plane& cur, const Plane& ref, int bx, int by,
                            int size, MotionVector mv_halfpel) noexcept {
  // Bias against leaving the integer-pel position: the bilinear half-pel
  // filter slightly denoises quantised references, which would otherwise
  // pull every static block off its (cheap, skippable) zero vector.
  const float lambda = 0.02f * static_cast<float>(size);

  MotionVector best = mv_halfpel;
  float best_cost = block_sad_halfpel(cur, ref, bx, by, size, best);
  for (int dy = -1; dy <= 1; ++dy)
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const MotionVector cand{mv_halfpel.x + dx, mv_halfpel.y + dy};
      const float cost =
          block_sad_halfpel(cur, ref, bx, by, size, cand) + lambda;
      if (cost < best_cost) {
        best_cost = cost;
        best = cand;
      }
    }
  return best;
}

float block_sad(const Plane& cur, const Plane& ref, int bx, int by, int size,
                MotionVector mv) noexcept {
  if (cur.contains(bx, by, size, size) &&
      ref.contains(bx + mv.x, by + mv.y, size, size))
    return sad_rows<0, 0>(cur.ptr(bx, by), cur.width(),
                          ref.ptr(bx + mv.x, by + mv.y), ref.width(), size);
  float acc = 0.0f;
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x)
      acc += std::abs(cur.at_clamped(bx + x, by + y) -
                      ref.at_clamped(bx + x + mv.x, by + y + mv.y));
  return acc;
}

MotionVector motion_search(const Plane& cur, const Plane& ref, int bx, int by,
                           int size, int range) noexcept {
  // Rate-ish penalty per pel of displacement, in SAD units. Keeps the search
  // from wandering on flat blocks where many displacements tie.
  const float lambda = 0.01f * static_cast<float>(size);

  MotionVector best{0, 0};
  float best_cost = block_sad(cur, ref, bx, by, size, best);

  int step = 1;
  while (step * 2 <= range) step *= 2;
  for (; step >= 1; step /= 2) {
    bool improved = true;
    while (improved) {
      improved = false;
      static constexpr int kDx[4] = {1, -1, 0, 0};
      static constexpr int kDy[4] = {0, 0, 1, -1};
      for (int d = 0; d < 4; ++d) {
        MotionVector cand{best.x + kDx[d] * step, best.y + kDy[d] * step};
        if (cand.x < -range || cand.x > range || cand.y < -range || cand.y > range)
          continue;
        const float cost =
            block_sad(cur, ref, bx, by, size, cand) +
            lambda * (std::abs(static_cast<float>(cand.x)) +
                      std::abs(static_cast<float>(cand.y)));
        if (cost < best_cost) {
          best_cost = cost;
          best = cand;
          improved = true;
        }
      }
    }
  }
  return best;
}

}  // namespace dcsr::codec

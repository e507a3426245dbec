#include "codec/motion.hpp"

#include <cmath>

namespace dcsr::codec {

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

float block_sad_halfpel(const Plane& cur, const Plane& ref, int bx, int by,
                        int size, MotionVector mv_halfpel) noexcept {
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

#include "video/noise.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace dcsr {

namespace {

// Mixes lattice coordinates and seed into a uniform [0,1) float.
float hash01(std::int64_t ix, std::int64_t iy, std::uint64_t seed) noexcept {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<std::uint64_t>(iy) * 0xc2b2ae3d27d4eb4fULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<float>(h >> 11) * 0x1.0p-53f;
}

float smoothstep(float t) noexcept { return t * t * (3.0f - 2.0f * t); }

}  // namespace

float ValueNoise::lattice(std::int64_t ix, std::int64_t iy) const noexcept {
  return hash01(ix, iy, seed_);
}

float ValueNoise::sample(float x, float y, float scale) const noexcept {
  const float fx = x / scale;
  const float fy = y / scale;
  const auto ix = static_cast<std::int64_t>(std::floor(fx));
  const auto iy = static_cast<std::int64_t>(std::floor(fy));
  const float tx = smoothstep(fx - static_cast<float>(ix));
  const float ty = smoothstep(fy - static_cast<float>(iy));
  const float a = lattice(ix, iy);
  const float b = lattice(ix + 1, iy);
  const float c = lattice(ix, iy + 1);
  const float d = lattice(ix + 1, iy + 1);
  const float top = a + (b - a) * tx;
  const float bot = c + (d - c) * tx;
  return top + (bot - top) * ty;
}

float ValueNoise::fbm(float x, float y, float base_scale, int octaves) const noexcept {
  float acc = 0.0f, amp = 1.0f, norm = 0.0f, scale = base_scale;
  for (int o = 0; o < octaves; ++o) {
    acc += amp * sample(x, y, scale);
    norm += amp;
    amp *= 0.5f;
    scale *= 0.5f;
    if (scale < 1.0f) break;
  }
  return acc / norm;
}

void ValueNoise::fbm_grid(const float* xs, int nx, const float* ys, int ny,
                          float base_scale, int octaves, float* out) const {
  if (nx <= 0 || ny <= 0) return;
  const auto n = static_cast<std::size_t>(nx);
  std::fill(out, out + n * static_cast<std::size_t>(ny), 0.0f);
  // Per column: the weight tx and slot, the index into `lx` (the lattice x
  // coordinates hashed on each lattice row) of the column's left lattice
  // point; its right point is slot + 1. Neighbouring columns share points.
  std::vector<float> tx(n), top(n), bot(n), lat0(2 * n), lat1(2 * n);
  std::vector<std::size_t> slot(n);
  std::vector<std::int64_t> lx;
  lx.reserve(2 * n);
  float amp = 1.0f, norm = 0.0f, scale = base_scale;
  for (int o = 0; o < octaves; ++o) {
    lx.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const float fx = xs[i] / scale;
      const auto ix = static_cast<std::int64_t>(std::floor(fx));
      tx[i] = smoothstep(fx - static_cast<float>(ix));
      if (i > 0 && ix == lx[slot[i - 1]]) {
        slot[i] = slot[i - 1];
      } else if (i > 0 && ix == lx[slot[i - 1] + 1]) {
        slot[i] = slot[i - 1] + 1;
        lx.push_back(ix + 1);
      } else {
        slot[i] = lx.size();
        lx.push_back(ix);
        lx.push_back(ix + 1);
      }
    }
    std::int64_t cell_iy = 0;
    for (int j = 0; j < ny; ++j) {
      const float fy = ys[j] / scale;
      const auto iy = static_cast<std::int64_t>(std::floor(fy));
      const float ty = smoothstep(fy - static_cast<float>(iy));
      // sample()'s `top` and `bot` depend on the row only through iy: hash
      // and interpolate them once per lattice row.
      if (j == 0 || iy != cell_iy) {
        for (std::size_t k = 0; k < lx.size(); ++k) {
          lat0[k] = lattice(lx[k], iy);
          lat1[k] = lattice(lx[k], iy + 1);
        }
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t k = slot[i];
          top[i] = lat0[k] + (lat0[k + 1] - lat0[k]) * tx[i];
          bot[i] = lat1[k] + (lat1[k + 1] - lat1[k]) * tx[i];
        }
        cell_iy = iy;
      }
      float* row = out + static_cast<std::size_t>(j) * n;
      for (std::size_t i = 0; i < n; ++i) row[i] += amp * (top[i] + (bot[i] - top[i]) * ty);
    }
    norm += amp;
    amp *= 0.5f;
    scale *= 0.5f;
    if (scale < 1.0f) break;
  }
  for (std::size_t k = 0; k < n * static_cast<std::size_t>(ny); ++k) out[k] /= norm;
}

}  // namespace dcsr

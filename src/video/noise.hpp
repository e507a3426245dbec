#pragma once

#include <cstdint>

namespace dcsr {

/// Deterministic 2-D value noise with multiple octaves. Every sample is a
/// pure function of (x, y, seed), so frames can be rendered in any order and
/// the same seed always produces the same video — the property the whole
/// reproducibility story rests on.
class ValueNoise {
 public:
  explicit ValueNoise(std::uint64_t seed) noexcept : seed_(seed) {}

  /// Single-octave smooth noise in [0,1]; `scale` is the lattice cell size in
  /// pixels (larger = smoother).
  float sample(float x, float y, float scale) const noexcept;

  /// Fractal sum of `octaves` octaves with persistence 0.5, in [0,1].
  float fbm(float x, float y, float base_scale, int octaves) const noexcept;

  /// fbm over the grid xs[0..nx) x ys[0..ny): writes
  /// out[j * nx + i] = fbm(xs[i], ys[j], base_scale, octaves), bit for bit.
  /// Each octave's cell index and smoothstep weight are computed once per
  /// column and once per row; the lattice hashes and the two x lerps once
  /// per column per lattice row, so a pixel costs one lerp and an add per
  /// octave. `fbm` stays the per-sample oracle.
  void fbm_grid(const float* xs, int nx, const float* ys, int ny, float base_scale,
                int octaves, float* out) const;

 private:
  float lattice(std::int64_t ix, std::int64_t iy) const noexcept;

  std::uint64_t seed_;
};

}  // namespace dcsr

#pragma once

#include <array>
#include <cstdint>

#include "codec/dct.hpp"

namespace dcsr::codec {

/// CRF-driven quantiser for orthonormal-DCT coefficients of [0,1]-domain
/// pixels. The step doubles every 6 CRF points, mirroring H.264's QP scale;
/// higher-frequency coefficients get proportionally larger steps (perceptual
/// weighting), which is what produces the blocky, detail-stripped look of
/// CRF-51 video that the SR models are trained to undo.
///
/// Steps are precomputed per (mode, coefficient) at construction, so the
/// quantise/dequantise kernels are pure table loops and both directions use
/// bit-identical steps.
class Quantizer {
 public:
  explicit Quantizer(int crf);

  int crf() const noexcept { return crf_; }

  /// Quantises a coefficient block to integer levels (raster order).
  std::array<std::int32_t, 64> quantize(const Block8& coeffs,
                                        bool intra) const noexcept;

  /// Reconstructs coefficients from levels.
  Block8 dequantize(const std::array<std::int32_t, 64>& levels,
                    bool intra) const noexcept;

  /// Fused dequantise + inverse DCT (the decode hot loop): bit-identical to
  /// idct8x8(dequantize(levels, intra)) on every backend.
  Block8 dequantize_idct(const std::array<std::int32_t, 64>& levels,
                         bool intra) const noexcept;

  /// Base step size at this CRF (luma DC, intra).
  float base_step() const noexcept { return base_step_; }

  /// Per-coefficient step table for a mode (64 floats, raster order).
  const float* steps(bool intra) const noexcept {
    return steps_[intra ? 0 : 1].data();
  }

 private:
  int crf_;
  float base_step_;
  std::array<std::array<float, 64>, 2> steps_{};
};

}  // namespace dcsr::codec

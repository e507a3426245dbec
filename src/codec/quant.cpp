#include "codec/quant.hpp"

#include <algorithm>
#include <cmath>

#include "simd/dispatch.hpp"

namespace dcsr::codec {

namespace {
// Frequency weight: grows linearly with the diagonal index of (u, v).
float freq_weight(int idx) noexcept {
  const int u = idx % 8, v = idx / 8;
  return 1.0f + 0.35f * static_cast<float>(u + v);
}
}  // namespace

Quantizer::Quantizer(int crf)
    : crf_(std::clamp(crf, 0, 51)),
      // Calibrated so CRF ~18 is visually transparent on the synthetic
      // content and CRF 51 is severely degraded (~20 dB luma PSNR), matching
      // the paper's "worst quality" setting.
      base_step_(0.012f * std::exp2(static_cast<float>(crf_ - 18) / 6.0f)) {
  // Per-coefficient step tables, computed once so the quantise/dequantise
  // kernels are pure table-driven loops. This is also what makes the two
  // directions use the *same* step bit-for-bit: historically each call site
  // re-derived base*weight*mode inline and the compiler's per-site FMA
  // contraction choices could disagree by an ulp.
  for (int i = 0; i < 64; ++i) {
    const float w = freq_weight(i);
    // Inter residuals tolerate slightly coarser quantisation than intra
    // samples (they are already small); H.264 behaves similarly via lambda
    // scaling. Factor kept mild.
    steps_[0][i] = base_step_ * w * 1.0f;   // intra
    steps_[1][i] = base_step_ * w * 1.15f;  // inter
  }
}

std::array<std::int32_t, 64> Quantizer::quantize(const Block8& coeffs,
                                                 bool intra) const noexcept {
  std::array<std::int32_t, 64> levels{};
  simd::active().quantize_block(coeffs.data(), steps(intra), levels.data());
  return levels;
}

Block8 Quantizer::dequantize(const std::array<std::int32_t, 64>& levels,
                             bool intra) const noexcept {
  Block8 coeffs{};
  simd::active().dequantize_block(levels.data(), steps(intra), coeffs.data());
  return coeffs;
}

Block8 Quantizer::dequantize_idct(const std::array<std::int32_t, 64>& levels,
                                  bool intra) const noexcept {
  Block8 out{};
  simd::active().dequant_idct8x8(levels.data(), steps(intra), out.data());
  return out;
}

}  // namespace dcsr::codec

// Tests for the sub-pel motion and intra-prediction codec features.

#include <gtest/gtest.h>

#include "codec/frame_coding.hpp"
#include "codec/motion.hpp"
#include "codec/quant.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "video/noise.hpp"

namespace dcsr::codec {
namespace {

Plane smooth_plane(int w, int h, std::uint64_t seed) {
  Plane p(w, h);
  const ValueNoise noise(seed);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      p.at(x, y) = noise.fbm(static_cast<float>(x), static_cast<float>(y), 16.0f, 2);
  return p;
}

// ---- half-pel sampling -------------------------------------------------------

TEST(HalfPel, EvenCoordinatesHitIntegerSamples) {
  Plane p(4, 4);
  p.at(2, 1) = 0.75f;
  EXPECT_FLOAT_EQ(sample_halfpel(p, 4, 2), 0.75f);
}

TEST(HalfPel, OddCoordinatesAverageNeighbours) {
  Plane p(4, 4);
  p.at(1, 1) = 0.2f;
  p.at(2, 1) = 0.6f;
  p.at(1, 2) = 0.4f;
  p.at(2, 2) = 0.8f;
  EXPECT_FLOAT_EQ(sample_halfpel(p, 3, 2), 0.4f);   // horizontal midpoint
  EXPECT_FLOAT_EQ(sample_halfpel(p, 2, 3), 0.3f);   // vertical midpoint
  EXPECT_FLOAT_EQ(sample_halfpel(p, 3, 3), 0.5f);   // diagonal midpoint
}

TEST(HalfPel, ClampsAtEdges) {
  Plane p(2, 2);
  p.fill(0.5f);
  EXPECT_FLOAT_EQ(sample_halfpel(p, -3, -3), 0.5f);
  EXPECT_FLOAT_EQ(sample_halfpel(p, 9, 9), 0.5f);
}

TEST(HalfPel, RefinementFindsSubPelShift) {
  // cur is ref shifted by exactly half a pixel horizontally (average of
  // neighbours); the refinement must pick the odd x displacement.
  const Plane ref = smooth_plane(64, 64, 3);
  Plane cur(64, 64);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      cur.at(x, y) = 0.5f * (ref.at_clamped(x, y) + ref.at_clamped(x + 1, y));
  const MotionVector full = motion_search(cur, ref, 24, 24, 16, 8);
  const MotionVector hp =
      refine_halfpel(cur, ref, 24, 24, 16, {2 * full.x, 2 * full.y});
  EXPECT_EQ(hp.x, 1);
  EXPECT_EQ(hp.y, 0);
}

TEST(HalfPel, RefinementKeepsZeroOnStaticContent) {
  const Plane p = smooth_plane(48, 48, 5);
  const MotionVector hp = refine_halfpel(p, p, 16, 16, 16, {0, 0});
  EXPECT_EQ(hp.x, 0);
  EXPECT_EQ(hp.y, 0);
}

TEST(HalfPel, SubPelMotionCodesCheaperThanResidual) {
  // A frame pair displaced by 2.5 px: with half-pel prediction the residual
  // nearly vanishes, so the P frame must be a small fraction of the intra
  // cost of the same frame.
  const Plane base = smooth_plane(80, 64, 7);
  FrameYUV ref(64, 48), cur(64, 48);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 64; ++x) {
      ref.y.at(x, y) = base.at_clamped(x + 8, y + 8);
      cur.y.at(x, y) = 0.5f * (base.at_clamped(x + 10, y + 8) +
                               base.at_clamped(x + 11, y + 8));
    }
  ref.u.fill(0.5f);
  ref.v.fill(0.5f);
  cur.u.fill(0.5f);
  cur.v.fill(0.5f);

  const Quantizer q(28);
  EncodedFrame ef_ref, ef_p, ef_i;
  const FrameYUV ref_recon =
      encode_frame(FrameType::kI, ref, {}, q, 0, 1, ef_ref);
  encode_frame(FrameType::kP, cur, {.newer = &ref_recon}, q, 8, 1, ef_p);
  encode_frame(FrameType::kI, cur, {}, q, 0, 1, ef_i);
  // The reference is itself quantised, so the sub-pel prediction is not
  // perfect — but the P frame must still be a small fraction of intra cost.
  EXPECT_LT(ef_p.payload.size() * 2, ef_i.payload.size());
}

// ---- intra prediction -----------------------------------------------------------

TEST(IntraPrediction, VerticallyUniformFrameCodesVeryCompactly) {
  // Columns constant along y: after the first block row, vertical prediction
  // is exact and every residual quantises to zero.
  FrameYUV f(64, 48);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 64; ++x)
      f.y.at(x, y) = 0.2f + 0.6f * static_cast<float>(x) / 63.0f;
  f.u.fill(0.5f);
  f.v.fill(0.5f);

  const Quantizer q(23);
  EncodedFrame ef;
  const FrameYUV recon = encode_frame(FrameType::kI, f, {}, q, 0, 1, ef);
  EXPECT_GT(psnr(f.y, recon.y), 37.0);
  // 48 luma + 24 chroma blocks; compact means only a few bits per block
  // beyond the mode signalling.
  EXPECT_LT(ef.payload.size() * 8, 72u * 40u);
}

TEST(IntraPrediction, HorizontallyUniformFrameCodesVeryCompactly) {
  FrameYUV f(64, 48);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 64; ++x)
      f.y.at(x, y) = 0.2f + 0.6f * static_cast<float>(y) / 47.0f;
  f.u.fill(0.5f);
  f.v.fill(0.5f);

  const Quantizer q(23);
  EncodedFrame ef;
  const FrameYUV recon = encode_frame(FrameType::kI, f, {}, q, 0, 1, ef);
  EXPECT_GT(psnr(f.y, recon.y), 37.0);
  EXPECT_LT(ef.payload.size() * 8, 72u * 40u);
}

TEST(IntraPrediction, DirectionalContentBeatsFlatDcAssumption) {
  // A frame of vertical stripes: vertical prediction reconstructs the second
  // block row of every macroblock row for free (intra prediction never
  // crosses an MB-row boundary), so the frame must cost well below the same
  // stripes with every other block row inverted, which no mode predicts.
  auto stripes = [](bool invert_odd_block_rows) {
    FrameYUV f(64, 48);
    for (int y = 0; y < 48; ++y)
      for (int x = 0; x < 64; ++x) {
        const bool on = ((x / 4) % 2 != 0) != (invert_odd_block_rows && (y / 8) % 2 != 0);
        f.y.at(x, y) = on ? 0.8f : 0.2f;
      }
    f.u.fill(0.5f);
    f.v.fill(0.5f);
    return f;
  };

  const Quantizer q(23);
  EncodedFrame ef, ef_inverted;
  encode_frame(FrameType::kI, stripes(false), {}, q, 0, 1, ef);
  encode_frame(FrameType::kI, stripes(true), {}, q, 0, 1, ef_inverted);
  // Half the block rows come free, so the ratio sits near 1/2.
  EXPECT_LT(ef.payload.size() * 4, ef_inverted.payload.size() * 3);
}

TEST(IntraPrediction, RoundTripStillBitExact) {
  // The new modes must preserve the encoder/decoder agreement.
  Rng rng(9);
  FrameYUV f(48, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 48; ++x)
      f.y.at(x, y) = static_cast<float>(rng.uniform());
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 24; ++x) {
      f.u.at(x, y) = static_cast<float>(rng.uniform());
      f.v.at(x, y) = static_cast<float>(rng.uniform());
    }
  const Quantizer q(30);
  EncodedFrame ef;
  const FrameYUV enc = encode_frame(FrameType::kI, f, {}, q, 0, 1, ef);
  FrameYUV dec(48, 32);
  decode_slice(FrameType::kI, dec, {}, q, ef.payload.data(), ef.payload.size(),
               {0, 2});
  EXPECT_DOUBLE_EQ(psnr(enc.y, dec.y), 100.0);
  EXPECT_DOUBLE_EQ(psnr(enc.u, dec.u), 100.0);
  EXPECT_DOUBLE_EQ(psnr(enc.v, dec.v), 100.0);
}

}  // namespace
}  // namespace dcsr::codec

#include <bit>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "codec/bits.hpp"
#include "codec/block_coder.hpp"
#include "codec/container.hpp"
#include "codec/dct.hpp"
#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "codec/frame_coding.hpp"
#include "codec/motion.hpp"
#include "codec/quant.hpp"
#include "codec/rate_control.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "util/alloc_check.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"
#include "video/genres.hpp"
#include "video/noise.hpp"

namespace dcsr::codec {
namespace {

// ---- bits -------------------------------------------------------------------

TEST(Bits, RawBitsRoundTrip) {
  BitWriter w;
  w.put_bits(0b10110, 5);
  w.put_bit(true);
  w.put_bits(0xff, 8);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(5), 0b10110u);
  EXPECT_TRUE(r.get_bit());
  EXPECT_EQ(r.get_bits(8), 0xffu);
}

TEST(Bits, ExpGolombUnsignedRoundTrip) {
  BitWriter w;
  for (std::uint32_t v = 0; v < 300; ++v) w.put_ue(v);
  const auto bytes = w.finish();
  BitReader r(bytes);
  for (std::uint32_t v = 0; v < 300; ++v) EXPECT_EQ(r.get_ue(), v);
}

TEST(Bits, ExpGolombSignedRoundTrip) {
  BitWriter w;
  for (std::int32_t v = -50; v <= 50; ++v) w.put_se(v);
  const auto bytes = w.finish();
  BitReader r(bytes);
  for (std::int32_t v = -50; v <= 50; ++v) EXPECT_EQ(r.get_se(), v);
}

TEST(Bits, OverReadThrows) {
  BitWriter w;
  w.put_bit(true);
  const auto bytes = w.finish();
  BitReader r(bytes);
  r.get_bits(8);  // padded byte
  EXPECT_THROW(r.get_bit(), std::out_of_range);
}

TEST(Bits, KnownUeCodewords) {
  // ue(0) = "1", ue(1) = "010", ue(2) = "011".
  BitWriter w;
  w.put_ue(0);
  w.put_ue(1);
  w.put_ue(2);
  EXPECT_EQ(w.bit_count(), 7u);
  const auto bytes = w.finish();
  EXPECT_EQ(bytes[0], 0b10100110);
}

// ---- DCT ---------------------------------------------------------------------

TEST(Dct, RoundTripIsIdentity) {
  Rng rng(1);
  Block8 b{};
  for (auto& v : b) v = static_cast<float>(rng.uniform(-0.5, 0.5));
  const Block8 rec = idct8x8(dct8x8(b));
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(rec[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-5f);
}

TEST(Dct, ConstantBlockIsPureDc) {
  Block8 b{};
  for (auto& v : b) v = 0.5f;
  const Block8 c = dct8x8(b);
  EXPECT_NEAR(c[0], 4.0f, 1e-5f);  // orthonormal: DC = 8 * 0.5
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(c[static_cast<std::size_t>(i)], 0.0f, 1e-5f);
}

TEST(Dct, EnergyPreserved) {
  // Orthonormal transform preserves the L2 norm (Parseval).
  Rng rng(2);
  Block8 b{};
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  const Block8 c = dct8x8(b);
  double eb = 0, ec = 0;
  for (int i = 0; i < 64; ++i) {
    eb += b[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    ec += c[static_cast<std::size_t>(i)] * c[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(eb, ec, 1e-4);
}

TEST(Dct, ZigzagIsAPermutation) {
  std::array<bool, 64> seen{};
  for (const int z : kZigzag) {
    ASSERT_GE(z, 0);
    ASSERT_LT(z, 64);
    EXPECT_FALSE(seen[static_cast<std::size_t>(z)]);
    seen[static_cast<std::size_t>(z)] = true;
  }
}

// ---- Quantizer ----------------------------------------------------------------

TEST(Quantizer, StepDoublesEverySixCrf) {
  const Quantizer q18(18), q24(24), q30(30);
  EXPECT_NEAR(q24.base_step() / q18.base_step(), 2.0f, 1e-4f);
  EXPECT_NEAR(q30.base_step() / q24.base_step(), 2.0f, 1e-4f);
}

TEST(Quantizer, LowCrfNearLossless) {
  Rng rng(3);
  Block8 b{};
  for (auto& v : b) v = static_cast<float>(rng.uniform(-0.4, 0.4));
  const Quantizer q(0);
  const Block8 rec = q.dequantize(q.quantize(b, true), true);
  // Worst-case error is half the largest (highest-frequency) step.
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(rec[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 6e-3f);
}

TEST(Quantizer, Crf51DestroysDetail) {
  // At CRF 51 almost all AC coefficients should quantise to zero.
  Rng rng(4);
  Block8 b{};
  for (auto& v : b) v = static_cast<float>(rng.uniform(-0.05, 0.05));
  const Quantizer q(51);
  const auto levels = q.quantize(dct8x8(b), true);
  int nonzero = 0;
  for (int i = 1; i < 64; ++i)
    if (levels[static_cast<std::size_t>(i)] != 0) ++nonzero;
  EXPECT_LE(nonzero, 3);
}

TEST(Quantizer, CrfIsClamped) {
  EXPECT_EQ(Quantizer(99).crf(), 51);
  EXPECT_EQ(Quantizer(-3).crf(), 0);
}

// ---- Motion -------------------------------------------------------------------

TEST(Motion, FindsKnownTranslation) {
  // Reference has a feature; current frame has it shifted by (3, -2).
  // Smooth textured reference: the SAD surface then decreases toward the
  // true offset, which a greedy three-step search requires.
  Plane ref(64, 64), cur(64, 64);
  const ValueNoise noise(5);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      ref.at(x, y) = noise.fbm(static_cast<float>(x), static_cast<float>(y), 16.0f, 2);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      cur.at(x, y) = ref.at_clamped(x + 3, y - 2);
  const MotionVector mv = motion_search(cur, ref, 16, 16, 16, 8);
  EXPECT_EQ(mv.x, 3);
  EXPECT_EQ(mv.y, -2);
}

TEST(Motion, StaticBlockYieldsZeroVector) {
  Plane p(32, 32);
  Rng rng(6);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) p.at(x, y) = static_cast<float>(rng.uniform());
  const MotionVector mv = motion_search(p, p, 8, 8, 16, 8);
  EXPECT_EQ(mv.x, 0);
  EXPECT_EQ(mv.y, 0);
}

// f(x, y) evaluated once on [-pad, w + pad) x [-pad, h + pad), so an
// oracle can stay per pixel without a function call per pixel.
class Tabulated {
 public:
  template <typename F>
  Tabulated(int w, int h, int pad, F f) : pad_(pad), stride_(w + 2 * pad) {
    for (int y = -pad; y < h + pad; ++y)
      for (int x = -pad; x < w + pad; ++x) v_.push_back(f(x, y));
  }
  float operator()(int x, int y) const {
    return v_[static_cast<std::size_t>((y + pad_) * stride_ + x + pad_)];
  }

 private:
  int pad_, stride_;
  std::vector<float> v_;
};

TEST(Motion, RowPathsMatchClampedSampling) {
  // predict_block_halfpel, block_sad, block_sad_halfpel and extract_block
  // read rows through pointers when a block's footprint lies inside the
  // plane and clamped samples when it does not. Both paths must give the
  // bits of the per-pixel clamped definitions, for every block origin from
  // 2 pixels before a plane to 2 past it and every vector that crosses each
  // edge by at least 3 pixels (half-pel +-5: -5 >> 1 is -3, +5 reads the
  // sample at +3), so footprints sit on, inside and across every border.
  const auto same = [](float a, float b) {
    return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
  };
  Rng rng(24);
  std::vector<float> pred(16 * 16);
  for (const auto& [w, h] : {std::pair{16, 16}, {40, 24}, {21, 14}}) {
    Plane ref(w, h), cur(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        ref.at(x, y) = static_cast<float>(rng.uniform());
        cur.at(x, y) = static_cast<float>(rng.uniform());
      }
    // Half-pel coordinates reach [-9, 2w + 39], pixels [-7, w + 22].
    const Tabulated halfpel(2 * w, 2 * h, 48, [&](int x2, int y2) {
      return sample_halfpel(ref, x2, y2);
    });
    const Tabulated ref_px(w, h, 24, [&](int x, int y) {
      return ref.at_clamped(x, y);
    });
    const Tabulated cur_px(w, h, 24, [&](int x, int y) {
      return cur.at_clamped(x, y);
    });
    for (int by = -2; by <= h + 2; ++by)
      for (int bx = -2; bx <= w + 2; ++bx) {
        const auto at = [&] {
          return std::to_string(w) + "x" + std::to_string(h) + " block (" +
                 std::to_string(bx) + "," + std::to_string(by) + ")";
        };
        const Block8 block = extract_block(ref, bx, by);
        for (int i = 0; i < 64; ++i)
          if (!same(block[static_cast<std::size_t>(i)],
                    ref_px(bx + i % 8, by + i / 8)))
            FAIL() << "extract_block " << at() << " sample " << i;
        for (const int size : {8, 16})
          for (int my = -5; my <= 5; ++my)
            for (int mx = -5; mx <= 5; ++mx) {
              const MotionVector mv{mx, my};
              const auto what = [&] {
                return at() + " size " + std::to_string(size) + " mv (" +
                       std::to_string(mx) + "," + std::to_string(my) + ")";
              };
              predict_block_halfpel(ref, bx, by, size, mv, pred.data(), size);
              float sad_hp = 0.0f, sad = 0.0f;
              for (int y = 0; y < size; ++y)
                for (int x = 0; x < size; ++x) {
                  const float s =
                      halfpel(2 * (bx + x) + mx, 2 * (by + y) + my);
                  if (!same(pred[static_cast<std::size_t>(y * size + x)], s))
                    FAIL() << "predict_block_halfpel " << what() << " at ("
                           << x << "," << y << ")";
                  const float c = cur_px(bx + x, by + y);
                  sad_hp += std::abs(c - s);
                  // block_sad takes integer pels: +-5 crosses by 5.
                  sad += std::abs(c - ref_px(bx + x + mx, by + y + my));
                }
              if (!same(block_sad_halfpel(cur, ref, bx, by, size, mv), sad_hp))
                FAIL() << "block_sad_halfpel " << what();
              if (!same(block_sad(cur, ref, bx, by, size, mv), sad))
                FAIL() << "block_sad " << what();
            }
      }
  }
}

// ---- Block coder ---------------------------------------------------------------

TEST(BlockCoder, LevelsRoundTripInter) {
  Rng rng(7);
  Levels8 levels{};
  for (auto& v : levels) v = static_cast<std::int32_t>(rng.uniform_int(-20, 20));
  BitWriter w;
  write_levels(w, levels);
  const auto bytes = w.finish();
  BitReader r(bytes);
  const Levels8 rec = read_levels(r);
  EXPECT_EQ(levels, rec);
}

TEST(BlockCoder, SparseBlockCodesCompactly) {
  Levels8 zero{};
  BitWriter w;
  write_levels(w, zero);
  // All-zero inter block = single EOB symbol = 13 bits.
  EXPECT_LE(w.bit_count(), 13u);
}

// ---- Frame coding ---------------------------------------------------------------

FrameYUV test_frame(int w, int h, std::uint64_t seed, double t = 0.0) {
  const auto video = make_genre_video(Genre::kDocumentary, seed, w, h, 4.0);
  return rgb_to_yuv420(video->frame(static_cast<int>(t * 30.0)));
}

// Frames below are coded as one slice, whose substream covers every MB row.
SliceSpan whole_frame(const FrameYUV& f) { return {0, f.height() / 16}; }

std::size_t payload_bits(const EncodedFrame& ef) { return ef.payload.size() * 8; }

TEST(FrameCoding, IntraRoundTripMatchesEncoderRecon) {
  const FrameYUV src = test_frame(64, 48, 11);
  const Quantizer q(23);
  EncodedFrame ef;
  const FrameYUV enc_recon = encode_frame(FrameType::kI, src, {}, q, 0, 1, ef);
  FrameYUV dec(64, 48);
  decode_slice(FrameType::kI, dec, {}, q, ef.payload.data(), ef.payload.size(),
               whole_frame(src));
  // Decoder must reproduce the encoder's reconstruction *exactly* — the
  // closed-loop property that keeps P/B prediction drift-free.
  EXPECT_DOUBLE_EQ(psnr(enc_recon.y, dec.y), 100.0);
  EXPECT_DOUBLE_EQ(psnr(enc_recon.u, dec.u), 100.0);
  EXPECT_DOUBLE_EQ(psnr(enc_recon.v, dec.v), 100.0);
}

TEST(FrameCoding, IntraQualityTracksCrf) {
  const FrameYUV src = test_frame(64, 48, 12);
  auto quality_at = [&](int crf) {
    const Quantizer q(crf);
    EncodedFrame ef;
    const FrameYUV recon = encode_frame(FrameType::kI, src, {}, q, 0, 1, ef);
    return psnr(src.y, recon.y);
  };
  const double q10 = quality_at(10);
  const double q30 = quality_at(30);
  const double q51 = quality_at(51);
  EXPECT_GT(q10, q30);
  EXPECT_GT(q30, q51);
  EXPECT_GT(q10, 40.0);
  EXPECT_LT(q51, 30.0);
}

TEST(FrameCoding, IntraBitsTrackCrf) {
  const FrameYUV src = test_frame(64, 48, 13);
  auto bits_at = [&](int crf) {
    const Quantizer q(crf);
    EncodedFrame ef;
    encode_frame(FrameType::kI, src, {}, q, 0, 1, ef);
    return payload_bits(ef);
  };
  EXPECT_GT(bits_at(10), bits_at(30));
  EXPECT_GT(bits_at(30), bits_at(51));
}

TEST(FrameCoding, PFrameRoundTripBitExact) {
  const FrameYUV f0 = test_frame(64, 48, 14, 0.0);
  const FrameYUV f1 = test_frame(64, 48, 14, 0.2);
  const Quantizer q(28);
  EncodedFrame ef_i, ef_p;
  const FrameYUV ref = encode_frame(FrameType::kI, f0, {}, q, 0, 1, ef_i);
  const FrameYUV enc_recon =
      encode_frame(FrameType::kP, f1, {.newer = &ref}, q, 8, 1, ef_p);
  FrameYUV dec(64, 48);
  decode_slice(FrameType::kP, dec, {.newer = &ref}, q, ef_p.payload.data(),
               ef_p.payload.size(), whole_frame(f1));
  EXPECT_DOUBLE_EQ(psnr(enc_recon.y, dec.y), 100.0);
  EXPECT_DOUBLE_EQ(psnr(enc_recon.u, dec.u), 100.0);
}

TEST(FrameCoding, PFrameSmallerThanIFrame) {
  const FrameYUV f0 = test_frame(64, 48, 15, 0.0);
  const FrameYUV f1 = test_frame(64, 48, 15, 1.0 / 30.0);
  const Quantizer q(28);
  EncodedFrame ef_i, ef_i1, ef_p;
  const FrameYUV ref = encode_frame(FrameType::kI, f0, {}, q, 0, 1, ef_i);
  encode_frame(FrameType::kI, f1, {}, q, 0, 1, ef_i1);
  encode_frame(FrameType::kP, f1, {.newer = &ref}, q, 8, 1, ef_p);
  // The GOP premise: consecutive-frame P coding is much cheaper than intra.
  EXPECT_LT(payload_bits(ef_p) * 3, payload_bits(ef_i1));
}

TEST(FrameCoding, StaticPFrameIsNearlyAllSkip) {
  const FrameYUV f = test_frame(64, 48, 16);
  const Quantizer q(28);
  EncodedFrame ef_i, ef_p;
  const FrameYUV ref = encode_frame(FrameType::kI, f, {}, q, 0, 1, ef_i);
  encode_frame(FrameType::kP, f, {.newer = &ref}, q, 8, 1, ef_p);
  // 12 MBs; all should skip (1 bit each), so the frame fits in a few bytes.
  EXPECT_LE(payload_bits(ef_p), 12u * 4u);
}

TEST(FrameCoding, BFrameRoundTripBitExact) {
  const FrameYUV f0 = test_frame(64, 48, 17, 0.0);
  const FrameYUV f1 = test_frame(64, 48, 17, 0.1);
  const FrameYUV f2 = test_frame(64, 48, 17, 0.2);
  const Quantizer q(28);
  EncodedFrame ef0, ef2, efb;
  const FrameYUV r0 = encode_frame(FrameType::kI, f0, {}, q, 0, 1, ef0);
  const FrameYUV r2 =
      encode_frame(FrameType::kP, f2, {.newer = &r0}, q, 8, 1, ef2);
  const FrameYUV enc_recon =
      encode_frame(FrameType::kB, f1, {&r0, &r2}, q, 8, 1, efb);
  FrameYUV dec(64, 48);
  decode_slice(FrameType::kB, dec, {&r0, &r2}, q, efb.payload.data(),
               efb.payload.size(), whole_frame(f1));
  EXPECT_DOUBLE_EQ(psnr(enc_recon.y, dec.y), 100.0);
}

TEST(FrameCoding, RejectsUnalignedDimensions) {
  const FrameYUV src(60, 44);  // not multiples of 16
  const Quantizer q(28);
  EncodedFrame ef;
  EXPECT_THROW(encode_frame(FrameType::kI, src, {}, q, 0, 1, ef),
               std::invalid_argument);
}

// P reads the newer reference and B reads both: every refs value below lacks
// one its frame type needs.
std::vector<std::pair<FrameType, FrameRefs>> missing_refs(const FrameYUV& ref) {
  return {{FrameType::kP, {}},
          {FrameType::kP, {.older = &ref}},
          {FrameType::kB, {}},
          {FrameType::kB, {.older = &ref}},
          {FrameType::kB, {.newer = &ref}}};
}

TEST(FrameCoding, EncodeFrameMissingReferenceThrowsAndLeavesFrameUntouched) {
  const FrameYUV f0 = test_frame(64, 48, 18, 0.0);
  const FrameYUV f1 = test_frame(64, 48, 18, 0.1);
  const Quantizer q(28);
  EncodedFrame ef_i;
  const FrameYUV ref = encode_frame(FrameType::kI, f0, {}, q, 0, 2, ef_i);
  for (const auto& [type, refs] : missing_refs(ref)) {
    SCOPED_TRACE(to_string(type));
    EncodedFrame ef = ef_i;  // already holds two slices
    EXPECT_THROW(encode_frame(type, f1, refs, q, 8, 2, ef),
                 std::invalid_argument);
    EXPECT_EQ(ef.type, FrameType::kI);
    EXPECT_EQ(ef.payload, ef_i.payload);
    EXPECT_EQ(ef.slice_sizes, ef_i.slice_sizes);
  }
}

TEST(FrameCoding, DecodeSliceMissingReferenceThrowsBeforeWritingOut) {
  const FrameYUV f0 = test_frame(64, 48, 19, 0.0);
  const FrameYUV f1 = test_frame(64, 48, 19, 0.1);
  const FrameYUV f2 = test_frame(64, 48, 19, 0.2);
  const Quantizer q(28);
  EncodedFrame ef_i, ef_p, ef_b;
  const FrameYUV r0 = encode_frame(FrameType::kI, f0, {}, q, 0, 1, ef_i);
  const FrameYUV r2 =
      encode_frame(FrameType::kP, f2, {.newer = &r0}, q, 8, 1, ef_p);
  encode_frame(FrameType::kB, f1, {&r0, &r2}, q, 8, 1, ef_b);
  for (const auto& [type, refs] : missing_refs(r0)) {
    SCOPED_TRACE(to_string(type));
    const EncodedFrame& ef = type == FrameType::kP ? ef_p : ef_b;
    FrameYUV out(64, 48);
    for (Plane* p : {&out.y, &out.u, &out.v}) p->fill(0.25f);
    // The throw allocates its message; inside a hot-path guard it must do
    // so in a sanctioned scope, so the caller sees std::invalid_argument.
    bool threw = false;
    {
      HotPathGuard guard("tests/codec_test.cpp:decode_slice missing reference");
      try {
        decode_slice(type, out, refs, q, ef.payload.data(), ef.payload.size(),
                     whole_frame(f1));
      } catch (const std::invalid_argument&) {
        threw = true;
      }
    }
    EXPECT_TRUE(threw);
    for (const Plane* p : {&out.y, &out.u, &out.v})
      for (std::size_t i = 0; i < p->size(); ++i)
        ASSERT_EQ(p->data()[i], 0.25f) << "sample " << i;
  }
}

// ---- Encoder / Decoder ------------------------------------------------------------

TEST(Codec, WholeVideoRoundTripDecodes) {
  const auto video = make_genre_video(Genre::kSports, 21, 64, 48, 2.0);
  CodecConfig cfg;
  cfg.crf = 28;
  const Encoder enc(cfg);
  const std::vector<SegmentPlan> segs{{0, 30}, {30, 30}};
  const EncodedVideo ev = enc.encode(*video, segs);
  EXPECT_EQ(ev.frame_count(), 60);
  EXPECT_EQ(ev.crf, 28);

  Decoder dec(64, 48, ev.crf);
  const auto frames = dec.decode_video(ev);
  ASSERT_EQ(frames.size(), 60u);
  // Decoded frames should resemble the source.
  for (int i = 0; i < 60; i += 13) {
    const FrameYUV src = rgb_to_yuv420(video->frame(i));
    EXPECT_GT(psnr(src.y, frames[static_cast<std::size_t>(i)].y), 25.0) << "frame " << i;
  }
}

TEST(Codec, SegmentsStartWithIFrames) {
  const auto video = make_genre_video(Genre::kNews, 22, 64, 48, 2.0);
  const Encoder enc(CodecConfig{});
  const EncodedVideo ev = enc.encode(*video, {{0, 30}, {30, 30}});
  for (const auto& seg : ev.segments) {
    ASSERT_FALSE(seg.frames.empty());
    EXPECT_EQ(seg.frames.front().type, FrameType::kI);
    EXPECT_EQ(seg.frames.front().display_index, 0);
  }
}

TEST(Codec, IntraPeriodInsertsExtraIFrames) {
  const auto video = make_genre_video(Genre::kNews, 23, 64, 48, 1.0);
  CodecConfig cfg;
  cfg.intra_period = 10;
  const Encoder enc(cfg);
  const EncodedVideo ev = enc.encode(*video, {{0, 30}});
  int i_frames = 0;
  for (const auto& f : ev.segments[0].frames)
    if (f.type == FrameType::kI) ++i_frames;
  EXPECT_EQ(i_frames, 3);  // display 0, 10, 20
}

TEST(Codec, BFramesProducedAndDecodable) {
  const auto video = make_genre_video(Genre::kSports, 24, 64, 48, 1.0);
  CodecConfig cfg;
  cfg.use_b_frames = true;
  const Encoder enc(cfg);
  const EncodedVideo ev = enc.encode(*video, {{0, 30}});
  int b_frames = 0;
  for (const auto& f : ev.segments[0].frames)
    if (f.type == FrameType::kB) ++b_frames;
  EXPECT_GT(b_frames, 10);
  // Last display frame must not be a B.
  for (const auto& f : ev.segments[0].frames) {
    if (f.display_index == 29) {
      EXPECT_NE(f.type, FrameType::kB);
    }
  }

  Decoder dec(64, 48, ev.crf);
  const auto frames = dec.decode_video(ev);
  ASSERT_EQ(frames.size(), 30u);
  const FrameYUV src = rgb_to_yuv420(video->frame(15));
  EXPECT_GT(psnr(src.y, frames[15].y), 22.0);
}

TEST(Codec, ReferenceHookFiresOncePerIFrame) {
  const auto video = make_genre_video(Genre::kAnimation, 25, 64, 48, 1.0);
  CodecConfig cfg;
  cfg.intra_period = 10;
  const Encoder enc(cfg);
  const EncodedVideo ev = enc.encode(*video, {{0, 30}});

  Decoder dec(64, 48, ev.crf);
  std::vector<int> hook_indices;
  dec.set_reference_hook([&](FrameYUV&, FrameType type, int display_index) {
    EXPECT_EQ(type, FrameType::kI);
    hook_indices.push_back(display_index);
  });
  dec.decode_video(ev);
  EXPECT_EQ(hook_indices, (std::vector<int>{0, 10, 20}));
}

TEST(Codec, HookEnhancementPropagatesToDependentFrames) {
  // Brighten the I frame in the DPB; dependent P frames (mostly skip/static
  // content) must inherit the change — the core dcSR client mechanism.
  const auto video = make_genre_video(Genre::kNews, 26, 64, 48, 1.0);
  const Encoder enc(CodecConfig{});
  const EncodedVideo ev = enc.encode(*video, {{0, 30}});

  Decoder plain(64, 48, ev.crf);
  const auto base = plain.decode_video(ev);

  Decoder hooked(64, 48, ev.crf);
  hooked.set_reference_hook([](FrameYUV& f, FrameType, int) {
    for (int y = 0; y < f.y.height(); ++y)
      for (int x = 0; x < f.y.width(); ++x)
        f.y.at(x, y) = std::min(1.0f, f.y.at(x, y) + 0.1f);
  });
  const auto enhanced = hooked.decode_video(ev);

  // A late frame in the segment should still carry most of the brightening.
  double diff = 0.0;
  const auto& a = base[20].y;
  const auto& b = enhanced[20].y;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x) diff += b.at(x, y) - a.at(x, y);
  diff /= static_cast<double>(a.size());
  EXPECT_GT(diff, 0.05);
}

TEST(Codec, NonContiguousSegmentsRejected) {
  const auto video = make_genre_video(Genre::kGaming, 27, 64, 48, 1.0);
  const Encoder enc(CodecConfig{});
  EXPECT_THROW(enc.encode(*video, {{0, 10}, {15, 15}}), std::invalid_argument);
  EXPECT_THROW(enc.encode(*video, {{0, 10}}), std::invalid_argument);  // not covering
}

std::vector<std::uint8_t> container_bytes(const EncodedVideo& ev) {
  ByteWriter w;
  write_container(ev, w);
  return w.bytes();
}

TEST(Encoder, GopParallelBitIdentical) {
  // Closed GOPs (one per I frame) encode concurrently and are concatenated in
  // GOP order, so the container must not depend on the pool size. Segment
  // lengths: 1, 3, a multiple of both non-zero intra periods (60) and a
  // non-multiple (26), so GOPs of every shape occur, including a B-frame
  // plan cut short by the segment end.
  const auto video = make_genre_video(Genre::kSports, 41, 32, 48, 3.0);  // 3 MB rows
  ASSERT_EQ(video->frame_count(), 90);
  const std::vector<SegmentPlan> plan{{0, 1}, {1, 3}, {4, 60}, {64, 26}};
  const int saved_threads = default_thread_count();
  for (const int intra_period : {0, 5, 12}) {
    for (const bool b_frames : {false, true}) {
      for (const int slices : {1, 3}) {
        CodecConfig cfg;
        cfg.crf = 30;
        cfg.intra_period = intra_period;
        cfg.use_b_frames = b_frames;
        cfg.slices = slices;
        std::vector<std::uint8_t> bytes[2];
        for (const int t : {0, 1}) {
          set_default_pool_threads(t == 0 ? 1 : 4);
          bytes[t] = container_bytes(Encoder(cfg).encode(*video, plan));
        }
        EXPECT_EQ(bytes[0], bytes[1]) << "intra_period=" << intra_period
                                      << " b_frames=" << b_frames
                                      << " slices=" << slices;
      }
    }
  }
  // Rate control re-encodes each segment through encode_segment, which fans
  // out over that segment's GOPs.
  CodecConfig base;
  base.intra_period = 12;
  base.use_b_frames = true;
  std::vector<std::uint8_t> bytes[2];
  std::vector<int> crfs[2];
  for (const int t : {0, 1}) {
    set_default_pool_threads(t == 0 ? 1 : 4);
    const RateControlledVideo rc =
        encode_with_target_bitrate(*video, plan, base, 150e3);
    bytes[t] = container_bytes(rc.video);
    crfs[t] = rc.segment_crf;
  }
  set_default_pool_threads(saved_threads);
  EXPECT_EQ(bytes[0], bytes[1]);
  EXPECT_EQ(crfs[0], crfs[1]);
}

TEST(Encoder, QuickstartContainerIsPinned) {
  // The quickstart video (examples/quickstart.cpp) encoded with the server
  // pipeline's codec settings over the segments its split produces. The
  // pin is the size and the container's own trailing CRC-32, i.e. the CRC
  // of every byte before it; a CRC over the whole container, trailer
  // included, is the constant CRC-32 residue 0x2144df1c for any container.
  const auto video = make_genre_video(Genre::kNews, 5, 96, 64, 60.0, 10.0);
  CodecConfig cfg;
  cfg.crf = 51;
  cfg.intra_period = 12;
  const EncodedVideo ev =
      Encoder(cfg).encode(*video, {{0, 300}, {300, 3}, {303, 182}, {485, 115}});
  EXPECT_EQ(ev.frame_count(), 600);
  const std::vector<std::uint8_t> bytes = container_bytes(ev);
  ASSERT_EQ(bytes.size(), 109395u);
  EXPECT_EQ(crc32(bytes.data(), bytes.size() - 4), 0x9a78c132u);
}

TEST(Codec, HigherCrfUsesFewerBytes) {
  const auto video = make_genre_video(Genre::kSports, 28, 64, 48, 1.0);
  auto bytes_at = [&](int crf) {
    CodecConfig cfg;
    cfg.crf = crf;
    return Encoder(cfg).encode(*video, {{0, 30}}).size_bytes();
  };
  EXPECT_GT(bytes_at(18), bytes_at(35));
  EXPECT_GT(bytes_at(35), bytes_at(51));
}

}  // namespace
}  // namespace dcsr::codec

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "codec/container.hpp"
#include "codec/deblock.hpp"
#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "video/genres.hpp"

namespace dcsr::codec {
namespace {

TEST(Deblock, SmoothsSmallBlockEdgeSteps) {
  // A plane with a small artificial step at the 8-boundary: filtering should
  // shrink the discontinuity.
  Plane p(16, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 16; ++x) p.at(x, y) = x < 8 ? 0.50f : 0.54f;
  const float before = std::abs(p.at(7, 4) - p.at(8, 4));
  deblock_plane(p, 8, /*qstep=*/0.05f);
  const float after = std::abs(p.at(7, 4) - p.at(8, 4));
  EXPECT_LT(after, before);
}

TEST(Deblock, PreservesRealEdges) {
  // A strong content edge at the block boundary must be left intact.
  Plane p(16, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 16; ++x) p.at(x, y) = x < 8 ? 0.1f : 0.9f;
  Plane orig = p;
  deblock_plane(p, 8, /*qstep=*/0.05f);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 16; ++x) EXPECT_EQ(p.at(x, y), orig.at(x, y));
}

TEST(Deblock, NoOpInsideBlocks) {
  // Samples away from block boundaries are untouched.
  Plane p(16, 16);
  Rng rng(1);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) p.at(x, y) = static_cast<float>(rng.uniform());
  Plane orig = p;
  deblock_plane(p, 8, 0.02f);
  for (int y = 2; y < 5; ++y)
    for (int x = 2; x < 5; ++x) EXPECT_EQ(p.at(x, y), orig.at(x, y));
}

TEST(Deblock, ImprovesHeavilyQuantisedDecode) {
  // End-to-end: at CRF 51, the loop filter should improve (or at least not
  // hurt) reconstruction quality on smooth content.
  const auto video = make_genre_video(Genre::kNews, 91, 64, 48, 3.0, 15.0);
  auto quality_with = [&](bool deblock) {
    CodecConfig cfg;
    cfg.crf = 51;
    cfg.deblock = deblock;
    const auto encoded = Encoder(cfg).encode(*video, {{0, video->frame_count()}});
    EXPECT_EQ(encoded.deblock, deblock);
    Decoder dec(64, 48, encoded.crf);
    const auto frames = dec.decode_video(encoded);
    double acc = 0.0;
    for (int i = 0; i < video->frame_count(); i += 9)
      acc += psnr_luma(rgb_to_yuv420(video->frame(i)),
                       frames[static_cast<std::size_t>(i)]);
    return acc;
  };
  EXPECT_GT(quality_with(true), quality_with(false) - 0.01);
}

TEST(Deblock, EncoderDecoderStayBitExact) {
  // The filtered reference must be identical on both sides: re-decoding a
  // deblocked stream twice gives identical frames, and P-chains do not
  // drift (the last frame still resembles the source).
  const auto video = make_genre_video(Genre::kSports, 92, 64, 48, 2.0, 15.0);
  CodecConfig cfg;
  cfg.crf = 40;
  cfg.deblock = true;
  cfg.use_b_frames = true;
  const auto encoded = Encoder(cfg).encode(*video, {{0, video->frame_count()}});

  Decoder d1(64, 48, encoded.crf), d2(64, 48, encoded.crf);
  const auto a = d1.decode_video(encoded);
  const auto b = d2.decode_video(encoded);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(psnr(a[i].y, b[i].y), 100.0);

  const int last = video->frame_count() - 1;
  EXPECT_GT(psnr_luma(rgb_to_yuv420(video->frame(last)),
                      a[static_cast<std::size_t>(last)]),
            20.0);
}

TEST(Deblock, HeaderConstructedDecoderMatchesDecodeVideo) {
  // Decoder(const EncodedVideo&) takes the loop filter from the stream
  // header, so decoding a deblocked stream segment by segment through it is
  // byte-identical to decode_video; a decoder built from the geometry alone
  // (no set_deblock) decodes the same stream differently.
  const auto video = make_genre_video(Genre::kSports, 94, 64, 48, 2.0, 15.0);
  CodecConfig cfg;
  cfg.crf = 40;
  cfg.deblock = true;
  cfg.use_b_frames = true;
  cfg.intra_period = 5;
  const int n = video->frame_count();
  const auto encoded = Encoder(cfg).encode(*video, {{0, n / 2}, {n / 2, n - n / 2}});
  const auto expected = Decoder(64, 48, encoded.crf).decode_video(encoded);

  const auto bytes_equal = [](const Plane& a, const Plane& b) {
    return a.same_size(b) &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  const auto decode_by_segment = [&](Decoder& dec) {
    std::vector<FrameYUV> out;
    for (const auto& seg : encoded.segments)
      for (auto& f : dec.decode_segment(seg)) out.push_back(std::move(f));
    return out;
  };
  Decoder from_header(encoded);
  const auto got = decode_by_segment(from_header);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(bytes_equal(got[i].y, expected[i].y)) << "frame " << i;
    EXPECT_TRUE(bytes_equal(got[i].u, expected[i].u)) << "frame " << i;
    EXPECT_TRUE(bytes_equal(got[i].v, expected[i].v)) << "frame " << i;
  }

  Decoder unfiltered(encoded.width, encoded.height, encoded.crf);
  EXPECT_FALSE(bytes_equal(decode_by_segment(unfiltered)[0].y, expected[0].y));
}

TEST(Deblock, FlagSurvivesContainerRoundTrip) {
  const auto video = make_genre_video(Genre::kNews, 93, 64, 48, 1.0, 15.0);
  CodecConfig cfg;
  cfg.deblock = true;
  const auto encoded = Encoder(cfg).encode(*video, {{0, video->frame_count()}});
  ByteWriter w;
  write_container(encoded, w);
  ByteReader r(w.bytes());
  EXPECT_TRUE(read_container(r).deblock);
}

}  // namespace
}  // namespace dcsr::codec

// Container format and corruption-robustness tests: a streamed .dcv payload
// must either round-trip exactly or fail loudly — never decode garbage.

#include <gtest/gtest.h>

#include <climits>

#include "codec/container.hpp"
#include "codec/decoder.hpp"
#include "codec/errors.hpp"
#include "codec/encoder.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "video/genres.hpp"

namespace dcsr::codec {
namespace {

EncodedVideo sample_stream(std::uint64_t seed = 81, bool b_frames = false) {
  const auto video = make_genre_video(Genre::kSports, seed, 64, 48, 1.5, 20.0);
  CodecConfig cfg;
  cfg.crf = 30;
  cfg.use_b_frames = b_frames;
  return Encoder(cfg).encode(*video, {{0, 15}, {15, 15}});
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data, sizeof data), 0xcbf43926u);
  EXPECT_EQ(crc32(data, 0), 0u);
}

TEST(Container, RoundTripsExactly) {
  const EncodedVideo original = sample_stream();
  ByteWriter w;
  write_container(original, w);
  ByteReader r(w.bytes());
  const EncodedVideo parsed = read_container(r);

  EXPECT_EQ(parsed.width, original.width);
  EXPECT_EQ(parsed.height, original.height);
  EXPECT_EQ(parsed.crf, original.crf);
  EXPECT_DOUBLE_EQ(parsed.fps, original.fps);
  ASSERT_EQ(parsed.segments.size(), original.segments.size());
  for (std::size_t s = 0; s < parsed.segments.size(); ++s) {
    ASSERT_EQ(parsed.segments[s].frames.size(), original.segments[s].frames.size());
    EXPECT_EQ(parsed.segments[s].first_frame, original.segments[s].first_frame);
    for (std::size_t f = 0; f < parsed.segments[s].frames.size(); ++f) {
      EXPECT_EQ(parsed.segments[s].frames[f].type, original.segments[s].frames[f].type);
      EXPECT_EQ(parsed.segments[s].frames[f].payload,
                original.segments[s].frames[f].payload);
    }
  }
}

TEST(Container, ParsedStreamDecodesIdentically) {
  const EncodedVideo original = sample_stream(82, /*b_frames=*/true);
  ByteWriter w;
  write_container(original, w);
  ByteReader r(w.bytes());
  const EncodedVideo parsed = read_container(r);

  Decoder d1(64, 48, original.crf), d2(64, 48, parsed.crf);
  const auto a = d1.decode_video(original);
  const auto b = d2.decode_video(parsed);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(psnr(a[i].y, b[i].y), 100.0);
}

TEST(Container, V1FilesRejectedWithClearError) {
  // Older containers (v1, and v2 with its sliceless frames) must fail at the
  // version check with a message naming the version and the magic's offset,
  // not limp into a CRC mismatch.
  const EncodedVideo original = sample_stream();
  ByteWriter w;
  write_container(original, w);
  // The magic is serialised LSB-first, so byte 0 carries the version digit.
  ASSERT_EQ(w.bytes()[0], 0x33);
  for (const std::uint8_t digit : {std::uint8_t{0x31}, std::uint8_t{0x32}}) {
    const std::string version = digit == 0x31 ? "v1" : "v2";
    SCOPED_TRACE(version);
    auto bytes = w.bytes();
    bytes[0] = digit;
    ByteReader r(std::move(bytes));
    try {
      (void)read_container(r);
      FAIL() << "expected rejection";
    } catch (const ContainerError& e) {
      EXPECT_NE(std::string(e.what()).find(version), std::string::npos)
          << e.what();
      EXPECT_EQ(e.byte_offset(), 0u);
    }
  }
}

TEST(Container, ZeroSliceCountRejectedWithOffset) {
  // Every frame has at least one slice. The writer refuses such a frame, so
  // write a valid container, zero frame 0's slice count in the bytes and
  // re-seal the trailing CRC: only the slice-count check can reject the file.
  // 29 header bytes, segment 0's first_frame, crf and frame count (u32
  // each), then frame 0's type (u8) and display index (u32).
  constexpr std::size_t kSliceCountAt = 46;
  ByteWriter w;
  write_container(sample_stream(), w);
  auto bytes = w.bytes();
  ASSERT_GT(bytes.size(), kSliceCountAt + 4);
  ASSERT_NE(bytes[kSliceCountAt], 0);  // a real slice count, LSB first
  for (std::size_t i = 0; i < 4; ++i) bytes[kSliceCountAt + i] = 0;
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t crc = crc32(bytes.data(), body);
  for (std::size_t i = 0; i < 4; ++i)
    bytes[body + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  ByteReader r(std::move(bytes));
  try {
    (void)read_container(r);
    FAIL() << "a frame without slices was accepted";
  } catch (const ContainerError& e) {
    EXPECT_NE(std::string(e.what()).find("without slices"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.byte_offset(), kSliceCountAt);
  }
}

// The writer holds frames to the reader's slice-table rules, so it cannot
// produce a file its own reader rejects. `what` names segment and frame.
void expect_writer_rejects(const EncodedVideo& video, const std::string& what) {
  ByteWriter w;
  try {
    write_container(video, w);
    FAIL() << "write_container accepted a bad slice table";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
  EXPECT_EQ(w.size(), 0u);  // nothing written on a throw
}

TEST(Container, WriterRejectsFrameWithoutSlices) {
  EncodedVideo video = sample_stream();
  video.segments[1].frames[2].slice_sizes.clear();
  expect_writer_rejects(video, "segment 1 frame 2: frame without slices");
}

TEST(Container, WriterRejectsSliceSizesNotSummingToPayload) {
  EncodedVideo video = sample_stream();
  EncodedFrame& f = video.segments[0].frames[3];
  ASSERT_FALSE(f.slice_sizes.empty());
  f.slice_sizes.back() += 1;
  expect_writer_rejects(video, "segment 0 frame 3: slice sizes sum to");
}

TEST(Container, BadMagicRejected) {
  const EncodedVideo original = sample_stream();
  ByteWriter w;
  write_container(original, w);
  auto bytes = w.bytes();
  bytes[0] ^= 0xff;
  ByteReader r(std::move(bytes));
  EXPECT_THROW(read_container(r), std::invalid_argument);
}

TEST(Container, TruncationRejected) {
  const EncodedVideo original = sample_stream();
  ByteWriter w;
  write_container(original, w);
  auto bytes = w.bytes();
  bytes.resize(bytes.size() / 2);
  ByteReader r(std::move(bytes));
  EXPECT_ANY_THROW(read_container(r));
}

TEST(Container, PayloadCorruptionCaughtByCrc) {
  const EncodedVideo original = sample_stream();
  ByteWriter w;
  write_container(original, w);
  auto bytes = w.bytes();
  // Flip one bit deep inside a frame payload (past the header fields).
  bytes[bytes.size() / 2] ^= 0x10;
  ByteReader r(std::move(bytes));
  EXPECT_THROW(read_container(r), std::invalid_argument);
}

TEST(Container, ManyRandomSingleByteCorruptionsNeverDecodeGarbage) {
  // Property: for any single-byte corruption, read_container either throws
  // or (if the flip hit the CRC-protected area in a self-consistent way,
  // which CRC-32 prevents for single flips) returns the original bytes.
  const EncodedVideo original = sample_stream();
  ByteWriter w;
  write_container(original, w);
  const auto clean = w.bytes();

  Rng rng(7);
  int rejected = 0;
  constexpr int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    auto bytes = clean;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
    ByteReader r(std::move(bytes));
    try {
      (void)read_container(r);
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  // CRC-32 detects all single-byte corruptions.
  EXPECT_EQ(rejected, kTrials);
}

TEST(Container, PerSegmentCrfSurvivesRoundTrip) {
  EncodedVideo original = sample_stream();
  original.segments[0].crf = 20;
  original.segments[1].crf = 45;
  ByteWriter w;
  write_container(original, w);
  ByteReader r(w.bytes());
  const EncodedVideo parsed = read_container(r);
  EXPECT_EQ(parsed.segments[0].crf, 20);
  EXPECT_EQ(parsed.segments[1].crf, 45);
}

TEST(Container, RejectsOutOfRangeSegmentCrf) {
  EncodedVideo original = sample_stream();
  original.segments[0].crf = 99;  // invalid
  ByteWriter w;
  write_container(original, w);
  ByteReader r(w.bytes());
  EXPECT_THROW(read_container(r), std::invalid_argument);
}

TEST(Container, RejectsFirstFrameThatOverflowsFrameNumbers) {
  // The decoder's reference hook numbers frames first_frame + display_index;
  // a crafted first_frame near INT_MAX would overflow that sum. The CRC is
  // valid here, so only the range check can reject the file.
  EncodedVideo original = sample_stream();
  original.segments[0].first_frame = INT_MAX;
  ByteWriter w;
  write_container(original, w);
  ByteReader r(w.bytes());
  try {
    (void)read_container(r);
    FAIL() << "first_frame = INT_MAX was accepted";
  } catch (const ContainerError& e) {
    // magic, width, height (u32 each), fps (f64), crf (u32), deblock (u8)
    // and the segment count (u32) precede segment 0's first_frame.
    EXPECT_EQ(e.byte_offset(), 29u);
  }
}

TEST(DecoderRobustness, CorruptPayloadThrowsNotCrashes) {
  // Even without the container's CRC, feeding a mangled frame payload to the
  // decoder must raise an exception (BitReader over-read / bad levels), not
  // corrupt memory. (Bit flips that only change pixel values are fine.)
  EncodedVideo stream = sample_stream(83);
  auto& payload = stream.segments[0].frames[0].payload;
  payload.resize(payload.size() / 3);  // truncate the I frame

  Decoder dec(64, 48, stream.crf);
  EXPECT_ANY_THROW(dec.decode_video(stream));
}

}  // namespace
}  // namespace dcsr::codec

// Macroblock-row slice tests: the sliced coded format must reconstruct
// bit-identically for every slice count, reject malformed slice framing
// with typed errors, and keep the warm decode loop heap-silent.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codec/container.hpp"
#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "codec/errors.hpp"
#include "codec/frame_coding.hpp"
#include "codec/quant.hpp"
#include "image/convert.hpp"
#include "util/alloc_check.hpp"
#include "util/serialize.hpp"
#include "video/genres.hpp"

namespace dcsr::codec {
namespace {

bool planes_equal(const Plane& a, const Plane& b) {
  return a.same_size(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool frames_equal(const FrameYUV& a, const FrameYUV& b) {
  return planes_equal(a.y, b.y) && planes_equal(a.u, b.u) &&
         planes_equal(a.v, b.v);
}

EncodedVideo encode_sample(int slices, bool b_frames = true) {
  const auto video = make_genre_video(Genre::kSports, 31, 64, 64, 1.0);
  CodecConfig cfg;
  cfg.crf = 30;
  cfg.use_b_frames = b_frames;
  cfg.intra_period = 10;
  cfg.slices = slices;
  return Encoder(cfg).encode(*video, {{0, video->frame_count()}});
}

// ---- Partition geometry -----------------------------------------------------

TEST(SlicePartition, TilesAllRowsContiguously) {
  std::vector<SliceSpan> spans = {{7, 7}};  // stale entries must be cleared
  for (int rows = 1; rows <= 9; ++rows) {
    for (int slices = 1; slices <= 12; ++slices) {
      slice_partition(rows, slices, spans);
      ASSERT_FALSE(spans.empty());
      EXPECT_LE(static_cast<int>(spans.size()), rows);  // clamped, never empty
      int next = 0;
      for (const SliceSpan s : spans) {
        EXPECT_EQ(s.first_mb_row, next);
        EXPECT_GE(s.mb_row_count, 1);
        next += s.mb_row_count;
      }
      EXPECT_EQ(next, rows);
    }
  }
}

// ---- Cross-slice-count bit identity ----------------------------------------

TEST(Slice, DecodeIsBitIdenticalAcrossSliceCounts) {
  // The restricted prediction never crosses an MB-row boundary, so the
  // reconstruction is one fixed point and the slice count is purely a
  // packaging/parallelism decision. Decode whole videos (I, P and B frames)
  // encoded at 1, 2 and 4 slices and require float-for-float equality.
  const EncodedVideo base = encode_sample(1);
  Decoder dec1(base.width, base.height, base.crf);
  const auto ref = dec1.decode_video(base);
  ASSERT_FALSE(ref.empty());

  for (const int slices : {2, 4}) {
    const EncodedVideo ev = encode_sample(slices);
    ASSERT_EQ(ev.segments.size(), base.segments.size());
    for (const auto& seg : ev.segments)
      for (const auto& ef : seg.frames)
        EXPECT_EQ(static_cast<int>(ef.slice_sizes.size()), slices);
    Decoder dec(ev.width, ev.height, ev.crf);
    const auto got = dec.decode_video(ev);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_TRUE(frames_equal(got[i], ref[i]))
          << "frame " << i << " diverges at " << slices << " slices";
  }
}

TEST(Slice, EveryFrameTypeRoundTripsAtEverySliceCount) {
  // The two entry points directly: each frame type coded at 1 to 4 slices
  // (a 64x64 frame has 4 MB rows), every slice decoded on its own into one
  // output frame. The decode equals the encoder's reconstruction, and the
  // reconstruction equals the 1-slice one.
  const auto video = make_genre_video(Genre::kSports, 31, 64, 64, 1.0);
  const Quantizer q(30);
  EncodedFrame scratch;
  const FrameYUV older = encode_frame(
      FrameType::kI, rgb_to_yuv420(video->frame(0)), {}, q, 0, 1, scratch);
  const FrameYUV newer =
      encode_frame(FrameType::kP, rgb_to_yuv420(video->frame(2)),
                   {.newer = &older}, q, 8, 1, scratch);
  const FrameRefs refs{&older, &newer};
  const FrameYUV src = rgb_to_yuv420(video->frame(1));
  std::vector<SliceSpan> spans;
  for (const FrameType type : {FrameType::kI, FrameType::kP, FrameType::kB}) {
    FrameYUV one_slice;
    for (int slices = 1; slices <= 4; ++slices) {
      SCOPED_TRACE(to_string(type) + " frame, " + std::to_string(slices) +
                   " slices");
      EncodedFrame ef;
      const FrameYUV recon = encode_frame(type, src, refs, q, 8, slices, ef);
      EXPECT_EQ(ef.type, type);
      ASSERT_EQ(ef.slice_sizes.size(), static_cast<std::size_t>(slices));
      slice_partition(4, slices, spans);
      FrameYUV out(64, 64);
      std::size_t off = 0;
      for (std::size_t s = 0; s < spans.size(); ++s) {
        decode_slice(type, out, refs, q, ef.payload.data() + off,
                     ef.slice_sizes[s], spans[s]);
        off += ef.slice_sizes[s];
      }
      EXPECT_EQ(off, ef.payload.size());
      EXPECT_TRUE(frames_equal(out, recon));
      if (slices == 1) one_slice = recon;
      EXPECT_TRUE(frames_equal(recon, one_slice));
    }
  }
}

TEST(Slice, PFrameSliceRowsMatchSliceOneBitstream) {
  // P/B slices carry byte-identical row content to the 1-slice encode (only
  // the resync headers are new per slice); the reconstruction equality above
  // plus this payload check pins that slicing splits, never re-codes.
  const EncodedVideo one = encode_sample(1, /*b_frames=*/false);
  const EncodedVideo two = encode_sample(2, /*b_frames=*/false);
  ASSERT_EQ(one.segments.size(), two.segments.size());
  std::size_t compared = 0;
  for (std::size_t s = 0; s < one.segments.size(); ++s) {
    for (std::size_t f = 0; f < one.segments[s].frames.size(); ++f) {
      const EncodedFrame& a = one.segments[s].frames[f];
      const EncodedFrame& b = two.segments[s].frames[f];
      // Sliced payloads are the same coded bits, re-chunked: total size can
      // only grow by the extra header bytes, never shrink.
      EXPECT_GE(b.payload.size() + 8, a.payload.size());
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

// ---- Slice framing errors ---------------------------------------------------

TEST(Slice, CorruptResyncMarkerThrows) {
  EncodedVideo ev = encode_sample(2);
  EncodedFrame& ef = ev.segments[0].frames[0];
  ASSERT_FALSE(ef.slice_sizes.empty());
  ef.payload[0] ^= 0xff;  // first slice's marker byte
  Decoder dec(ev.width, ev.height, ev.crf);
  EXPECT_THROW((void)dec.decode_segment(ev.segments[0]), BitstreamError);
}

TEST(Slice, SwappedSliceSubstreamsThrowGeometryError) {
  // Swap the two substreams of a 2-slice frame: every slice header now
  // claims the other slice's rows. The redundant geometry check must refuse
  // before any pixel is written.
  EncodedVideo ev = encode_sample(2);
  EncodedFrame& ef = ev.segments[0].frames[0];
  ASSERT_EQ(ef.slice_sizes.size(), 2u);
  const std::size_t n0 = ef.slice_sizes[0], n1 = ef.slice_sizes[1];
  std::vector<std::uint8_t> swapped;
  swapped.insert(swapped.end(), ef.payload.begin() + static_cast<long>(n0),
                 ef.payload.end());
  swapped.insert(swapped.end(), ef.payload.begin(),
                 ef.payload.begin() + static_cast<long>(n0));
  ef.payload = std::move(swapped);
  std::swap(ef.slice_sizes[0], ef.slice_sizes[1]);
  ASSERT_EQ(ef.slice_sizes[0], n1);
  Decoder dec(ev.width, ev.height, ev.crf);
  EXPECT_THROW((void)dec.decode_segment(ev.segments[0]), BitstreamError);
}

TEST(Slice, SliceSizeSumMismatchThrows) {
  EncodedVideo ev = encode_sample(2);
  EncodedFrame& ef = ev.segments[0].frames[0];
  ef.slice_sizes[0] += 1;  // table no longer sums to the payload size
  Decoder dec(ev.width, ev.height, ev.crf);
  EXPECT_THROW((void)dec.decode_segment(ev.segments[0]), BitstreamError);
}

TEST(Slice, MoreSlicesThanMacroblockRowsThrows) {
  EncodedVideo ev = encode_sample(1);
  EncodedFrame& ef = ev.segments[0].frames[0];
  // 64x64 has 4 MB rows; claim 5 slices whose sizes still sum correctly.
  ASSERT_GE(ef.payload.size(), 5u);
  const auto total = static_cast<std::uint32_t>(ef.payload.size());
  ef.slice_sizes = {1, 1, 1, 1, total - 4};
  Decoder dec(ev.width, ev.height, ev.crf);
  EXPECT_THROW((void)dec.decode_segment(ev.segments[0]), BitstreamError);
}

TEST(Slice, TruncatedSliceSubstreamThrows) {
  EncodedVideo ev = encode_sample(2);
  EncodedFrame& ef = ev.segments[0].frames[0];
  // Drop the last slice's tail but keep the table consistent: the entropy
  // loop must hit the over-read guard, not wander out of the buffer.
  const std::size_t n = ef.payload.size();
  ASSERT_GT(ef.slice_sizes[1], 4u);
  ASSERT_GT(n, 4u);
  ef.slice_sizes[1] -= 4;
  ef.payload.resize(n > 4 ? n - 4 : 0);
  Decoder dec(ev.width, ev.height, ev.crf);
  EXPECT_THROW((void)dec.decode_segment(ev.segments[0]), BitstreamError);
}

TEST(Slice, EmptySliceTableThrows) {
  // Every frame has at least one slice. A frame without a slice table would
  // skip every slice loop and hand back whatever the warm output planes
  // still held, so the decoder refuses it, whatever its payload.
  const EncodedVideo ev = encode_sample(1);
  for (const bool empty_payload : {true, false}) {
    SCOPED_TRACE(empty_payload ? "empty payload" : "non-empty payload");
    EncodedSegment seg = ev.segments[0];
    EncodedFrame& ef = seg.frames[0];
    ef.slice_sizes.clear();
    if (empty_payload) ef.payload.clear();
    ASSERT_EQ(ef.payload.empty(), empty_payload);
    Decoder dec(ev.width, ev.height, ev.crf);
    std::vector<FrameYUV> out;
    dec.decode_segment_into(ev.segments[0], out);  // warm planes
    EXPECT_THROW(dec.decode_segment_into(seg, out), BitstreamError);
    EXPECT_THROW((void)dec.decode_intra(seg, ef), BitstreamError);
  }
}

// ---- Container --------------------------------------------------------------

TEST(Slice, V3ContainerRoundTripPreservesSliceSizes) {
  const EncodedVideo ev = encode_sample(3);
  ByteWriter w;
  write_container(ev, w);
  EXPECT_EQ(w.bytes()[0], 0x33);  // "dcV3", LSB first
  ByteReader r(w.bytes());
  const EncodedVideo back = read_container(r);
  ASSERT_EQ(back.segments.size(), ev.segments.size());
  for (std::size_t s = 0; s < ev.segments.size(); ++s) {
    ASSERT_EQ(back.segments[s].frames.size(), ev.segments[s].frames.size());
    for (std::size_t f = 0; f < ev.segments[s].frames.size(); ++f) {
      EXPECT_EQ(back.segments[s].frames[f].slice_sizes,
                ev.segments[s].frames[f].slice_sizes);
      EXPECT_EQ(back.segments[s].frames[f].payload,
                ev.segments[s].frames[f].payload);
    }
  }
}

// ---- Warm decode heap silence ----------------------------------------------

#if DCSR_ALLOC_CHECK
TEST(Decode, SteadyStateIsHeapSilent) {
  // Once the decoder's scratch (slice spans/offsets, reference frames,
  // output planes) is warm, decoding further segments into reused frames
  // must not touch the allocator at all — the per-slice entropy readers are
  // non-owning views and the claim spans are stack values.
  const EncodedVideo ev = encode_sample(2);
  Decoder dec(ev.width, ev.height, ev.crf);
  dec.set_deblock(ev.deblock);
  std::vector<FrameYUV> out;
  for (int i = 0; i < 3; ++i)  // warm-up: pool, planes, scratch
    dec.decode_segment_into(ev.segments[0], out);

  const AllocStats warm = thread_alloc_stats();
  for (int i = 0; i < 10; ++i) dec.decode_segment_into(ev.segments[0], out);
  const AllocStats after = thread_alloc_stats();
  EXPECT_EQ(after.allocs - warm.allocs, 0u)
      << "steady-state decode must not touch the heap";
  EXPECT_EQ(after.frees - warm.frees, 0u);
  EXPECT_EQ(after.bytes - warm.bytes, 0u);
}
#endif

}  // namespace
}  // namespace dcsr::codec

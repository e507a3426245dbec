#include "codec/decoder.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "codec/deblock.hpp"
#include "codec/errors.hpp"
#include "codec/frame_coding.hpp"
#include "codec/quant.hpp"
#include "util/alloc_check.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::codec {

namespace {

// Copies src into dst reusing dst's heap blocks: Plane::reset stays on its
// capacity-reuse branch once the planes have seen a frame of this geometry,
// so the per-frame reference rotation is heap-silent when warm.
void copy_frame_into(const FrameYUV& src, FrameYUV& dst) {
  dst.y.reset(src.y.width(), src.y.height());
  dst.u.reset(src.u.width(), src.u.height());
  dst.v.reset(src.v.width(), src.v.height());
  std::copy(src.y.data(), src.y.data() + src.y.size(), dst.y.data());
  std::copy(src.u.data(), src.u.data() + src.u.size(), dst.u.data());
  std::copy(src.v.data(), src.v.data() + src.v.size(), dst.v.data());
}

}  // namespace

Decoder::Decoder(int width, int height, int crf)
    : width_(width), height_(height), crf_(crf) {
  // Reject impossible geometry up front: every decoded frame is allocated
  // from these two numbers, so a hostile header must not reach the per-frame
  // loops (FrameYUV requires even dimensions for 4:2:0 chroma).
  if (width <= 0 || height <= 0 || width > 16384 || height > 16384 ||
      width % 2 != 0 || height % 2 != 0)
    throw std::invalid_argument("Decoder: implausible frame geometry " +
                                std::to_string(width) + "x" +
                                std::to_string(height));
}

Decoder::Decoder(const EncodedVideo& video)
    : Decoder(video.width, video.height, video.crf) {
  deblock_ = video.deblock;
}

void Decoder::decode_frame(const EncodedFrame& ef, const Quantizer& q,
                           FrameYUV& out) {
  const auto n = static_cast<int>(ef.slice_sizes.size());
  if (n == 0) {
    // With no slices every loop below would be skipped and `out` would keep
    // whatever its warm planes held.
    AllocAllowScope allow;
    throw BitstreamError("decode: frame without slices", 0);
  }
  if (width_ % 16 != 0 || height_ % 16 != 0) {
    AllocAllowScope allow;
    throw BitstreamError("decode: frame in a non-MB-aligned stream", 0);
  }
  const int mb_rows = height_ / 16;
  if (n > mb_rows) {
    AllocAllowScope allow;
    throw BitstreamError("decode: more slices than macroblock rows", 0);
  }

  // Canonical geometry and payload offsets, built in warm per-frame scratch;
  // each slice header is validated against this, never trusted.
  if (spans_.capacity() < static_cast<std::size_t>(n) ||
      slice_offsets_.capacity() < static_cast<std::size_t>(n)) {
    AllocAllowScope allow;
    spans_.reserve(static_cast<std::size_t>(n));
    slice_offsets_.reserve(static_cast<std::size_t>(n));
  }
  slice_partition(mb_rows, n, spans_);
  slice_offsets_.clear();
  std::size_t off = 0;
  for (const std::uint32_t size : ef.slice_sizes) {
    slice_offsets_.push_back(off);
    off += size;
  }
  if (off != ef.payload.size()) {
    AllocAllowScope allow;
    throw BitstreamError("decode: slice sizes disagree with payload size", 0);
  }

  out.y.reset(width_, height_);
  out.u.reset(width_ / 2, height_ / 2);
  out.v.reset(width_ / 2, height_ / 2);

  const std::uint8_t* payload = ef.payload.data();
  float* luma = out.y.data();
  const std::int64_t row_floats = static_cast<std::int64_t>(width_) * 16;
  parallel_for_writes(
      0, n, 1,
      [&](std::int64_t lo, std::int64_t hi) -> WriteSpan {
        // A chunk owns the contiguous luma pixel-row band of its slices. The
        // chroma rows it also writes follow the identical disjoint MB-row
        // partition (rows [8*r0, 8*r1) of the half-height planes), so
        // disjoint luma claims prove the chroma writes disjoint too — same
        // convention as the playback pipeline's per-slot claims.
        const int r0 = spans_[static_cast<std::size_t>(lo)].first_mb_row;
        const auto& last = spans_[static_cast<std::size_t>(hi - 1)];
        const int r1 = last.first_mb_row + last.mb_row_count;
        return span_of(luma + r0 * row_floats,
                       static_cast<std::size_t>((r1 - r0) * row_floats));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t s = lo; s < hi; ++s) {
          const auto i = static_cast<std::size_t>(s);
          decode_slice(ef.type, out, {&ref_past_, &ref_last_}, q,
                       payload + slice_offsets_[i], ef.slice_sizes[i],
                       spans_[i]);
        }
      },
      "codec/decoder.cpp:decode_frame");
  if (deblock_) deblock_frame(out, q.base_step());
}

std::vector<FrameYUV> Decoder::decode_segment(const EncodedSegment& seg) {
  std::vector<FrameYUV> display;
  decode_segment_into(seg, display);
  return display;
}

void Decoder::decode_segment_into(const EncodedSegment& seg,
                                  std::vector<FrameYUV>& display) {
  const Quantizer q(seg.crf >= 0 ? seg.crf : crf_);
  if (display.size() != seg.frames.size()) {
    // Segment-length change (or first call): growing the display vector is
    // warm-up, not steady-state traffic.
    AllocAllowScope allow;
    display.resize(seg.frames.size());
  }
  int refs_seen = 0;

  for (const auto& ef : seg.frames) {
    if (ef.display_index < 0 ||
        static_cast<std::size_t>(ef.display_index) >= display.size())
      throw std::invalid_argument("decode: bad display index");
    if (ef.type == FrameType::kP && refs_seen < 1)
      throw std::invalid_argument("decode: P frame before any reference");
    if (ef.type == FrameType::kB && refs_seen < 2)
      throw std::invalid_argument("decode: B frame without two references");
    FrameYUV& frame = display[static_cast<std::size_t>(ef.display_index)];

    {
      // Steady-state decode is on the heap-silence contract: slice scratch,
      // the output planes and the reference buffers all reuse warm storage.
      HotPathGuard guard("codec/decoder.cpp:decode_segment_into");
      decode_frame(ef, q, frame);
    }
    // The dcSR integration point: enhance the reference in the DPB before
    // any dependent frame is decoded. Deblocking (above) runs first as a
    // deterministic whole-frame post-pass — slice-count independent — and
    // the hook sees the filtered frame, exactly as before.
    if (hook_ && (ef.type == FrameType::kI ||
                  (ef.type == FrameType::kP && hook_p_frames_)))
      hook_(frame, ef.type, seg.first_frame + ef.display_index);
    if (ef.type != FrameType::kB) {
      std::swap(ref_past_, ref_last_);
      {
        HotPathGuard guard("codec/decoder.cpp:reference-rotation");
        copy_frame_into(frame, ref_last_);
      }
      ++refs_seen;
    }
  }
}

FrameYUV Decoder::decode_intra(const EncodedSegment& seg, const EncodedFrame& ef) {
  if (ef.type != FrameType::kI)
    throw std::invalid_argument("decode_intra: not an I frame");
  FrameYUV out;
  decode_frame(ef, Quantizer(seg.crf >= 0 ? seg.crf : crf_), out);
  return out;
}

std::vector<FrameYUV> Decoder::decode_video(const EncodedVideo& video) {
  deblock_ = video.deblock;
  std::vector<FrameYUV> out;
  out.reserve(static_cast<std::size_t>(video.frame_count()));
  for (const auto& seg : video.segments) {
    auto frames = decode_segment(seg);
    for (auto& f : frames) out.push_back(std::move(f));
  }
  return out;
}

}  // namespace dcsr::codec

#pragma once

#include <vector>

#include "codec/types.hpp"
#include "image/frame.hpp"
#include "video/source.hpp"

namespace dcsr::codec {

/// Placement of one variable- or fixed-length segment in a video (display
/// frame indices). Produced by the split module; the encoder opens every
/// segment with an I frame, which is exactly the content-aware I-frame
/// placement the paper adopts from Netflix's shot-based encoding.
struct SegmentPlan {
  int first_frame = 0;
  int frame_count = 0;
};

/// Closed-loop encoder. Stateless across calls; all coding state lives on
/// the stack of encode().
///
/// Every I frame opens a closed GOP: no B frame sits directly before an I,
/// and an I frame references nothing, so the GOPs of a segment are
/// independent. Both entry points plan a segment's frame types once, then
/// encode its GOPs (for encode(), the GOPs of all segments) concurrently on
/// the default pool and concatenate them in GOP order. The output is
/// byte-identical for every pool size; a pool of 1 is the serial encoder.
class Encoder {
 public:
  explicit Encoder(CodecConfig cfg) : cfg_(cfg) {}

  const CodecConfig& config() const noexcept { return cfg_; }

  /// Encodes the given segments of a video. Segments must be contiguous,
  /// non-overlapping, and in order. Each GOP renders and converts only its
  /// own frames, so `video.frame()` is called concurrently from pool
  /// threads (see VideoSource).
  EncodedVideo encode(const VideoSource& video,
                      const std::vector<SegmentPlan>& segments) const;

  /// Encodes one segment given its frames in display order.
  EncodedSegment encode_segment(const std::vector<FrameYUV>& frames,
                                int first_frame) const;

 private:
  CodecConfig cfg_;
};

}  // namespace dcsr::codec

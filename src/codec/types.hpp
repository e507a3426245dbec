#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dcsr::codec {

/// Picture type in the group-of-pictures structure. I frames are
/// self-contained; P frames reference the previous decoded reference; B
/// frames reference the surrounding past and future references (§1 of the
/// paper: "while I frames do not make reference to any frame, P frames make
/// reference to I or P frames... B frames make reference to previous and
/// future frames").
enum class FrameType : std::uint8_t { kI = 0, kP = 1, kB = 2 };

std::string to_string(FrameType t);

/// One encoded picture: its display position, type, and entropy-coded
/// payload. The payload is a real bitstream — the decoder reconstructs the
/// frame from these bytes alone, and size_bytes() is what the streaming
/// simulator charges to the network.
struct EncodedFrame {
  FrameType type = FrameType::kI;
  int display_index = 0;  // position within the segment, display order
  std::vector<std::uint8_t> payload;

  /// Byte length of each macroblock-row slice inside `payload`, in slice
  /// order; the sizes sum to payload.size(). A decodable frame has at least
  /// one slice: the container and the decoder reject an empty table.
  std::vector<std::uint32_t> slice_sizes;

  std::size_t size_bytes() const noexcept { return payload.size(); }
};

/// A variable-length video segment: frames in *decode* order.
struct EncodedSegment {
  int first_frame = 0;  // display index of the segment start within the video

  /// Quantiser setting this segment was coded with. -1 means "use the
  /// stream-level CRF" (all segments of a plain encode); rate-controlled
  /// streams carry a per-segment value, like real per-shot ladders.
  int crf = -1;

  std::vector<EncodedFrame> frames;  // decode order

  std::size_t size_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& f : frames) n += f.size_bytes();
    return n;
  }
  int frame_count() const noexcept { return static_cast<int>(frames.size()); }
};

/// A complete encoded video.
struct EncodedVideo {
  int width = 0, height = 0;
  double fps = 30.0;
  int crf = 28;  // quantiser setting; the decoder needs it to dequantise
  bool deblock = false;  // whether the loop filter is part of this stream
  std::vector<EncodedSegment> segments;

  std::size_t size_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& s : segments) n += s.size_bytes();
    return n;
  }
  int frame_count() const noexcept {
    int n = 0;
    for (const auto& s : segments) n += s.frame_count();
    return n;
  }
};

/// Encoder configuration.
struct CodecConfig {
  /// Constant rate factor, 0 (lossless-ish) .. 51 (worst), mirroring x264's
  /// scale. The paper's low-quality inputs use CRF 51.
  int crf = 28;

  /// Insert an extra I frame every `intra_period` frames *within* a segment
  /// (0 = only at segment starts). The paper notes "there can be multiple I
  /// frames in a segment in a practical setting in order to avoid the
  /// quality drift"; this knob reproduces that setting.
  int intra_period = 0;

  /// Use one B frame between references (display pattern I B P B P ...)
  /// instead of P-only (I P P P ...).
  bool use_b_frames = false;

  /// Luma motion-search range in pixels (three-step search).
  int search_range = 8;

  /// In-loop deblocking of reconstructed frames (encoder and decoder apply
  /// it identically). Off by default; the ablation bench compares it, as
  /// the classical artifact-reduction tool, against dcSR's neural one.
  bool deblock = false;

  /// Number of macroblock-row slices per frame (clamped to the frame's MB-row
  /// count). Each slice is an independently decodable entropy substream with
  /// its own predictor reset, so the decoder can run slices concurrently.
  /// Decoded output is bit-identical for every slice count: sliced streams
  /// use slice-restricted intra prediction regardless of how many slices the
  /// rows were split into.
  int slices = 1;
};

}  // namespace dcsr::codec

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "codec/frame_coding.hpp"
#include "codec/types.hpp"
#include "image/frame.hpp"

namespace dcsr::codec {

/// Called on every I frame right after reconstruction, while it sits in the
/// decoded picture buffer and *before* any P/B frame references it — the
/// exact integration point of client-side dcSR (Fig. 6 of the paper). The
/// callee may modify the frame in place (e.g. convert YUV->RGB, run the
/// micro SR model, convert back); subsequent P/B frames then inherit the
/// enhancement through motion-compensated prediction.
using ReferenceHook =
    std::function<void(FrameYUV& frame, FrameType type, int display_index)>;

/// Standalone decoder with a two-slot reference buffer (past + most recent),
/// enough for the I/P/B structures this codec emits.
class Decoder {
 public:
  Decoder(int width, int height, int crf);

  /// A decoder for `video`'s stream: frame geometry, CRF and the loop filter
  /// come from its header.
  explicit Decoder(const EncodedVideo& video);

  /// Installs the in-loop enhancement hook (may be empty). With
  /// `include_p_frames`, the hook also fires on P-frame reconstructions
  /// before they become references — NEMO-style anchor frames: the callee
  /// decides per frame (by type/index) whether to spend an inference.
  void set_reference_hook(ReferenceHook hook, bool include_p_frames = false) {
    hook_ = std::move(hook);
    hook_p_frames_ = include_p_frames;
  }

  /// Enables the in-loop deblocking filter; must match the encoder's
  /// setting (the EncodedVideo constructor and decode_video() take it from
  /// the stream).
  void set_deblock(bool on) noexcept { deblock_ = on; }

  /// Decodes one segment; returns frames in display order.
  std::vector<FrameYUV> decode_segment(const EncodedSegment& seg);

  /// Warm in-place variant: decodes into `display` (display order), reusing
  /// its frames' heap blocks across calls. Each frame decodes its slices
  /// concurrently (each slice claims its disjoint plane rows under
  /// `parallel_for_writes`) and the steady state is heap-silent under the
  /// hot-path allocation contract. A frame with an empty slice table throws
  /// BitstreamError.
  void decode_segment_into(const EncodedSegment& seg,
                           std::vector<FrameYUV>& display);

  /// Decodes a whole video; returns frames in display order.
  std::vector<FrameYUV> decode_video(const EncodedVideo& video);

  /// Decodes one I frame of `seg` on its own: the frame decode_segment holds
  /// in the DPB when the reference hook fires for it (deblocked if set), bit
  /// for bit. Touches neither the reference buffer nor the hook. The
  /// server's training inputs come from here. Throws std::invalid_argument
  /// on a P or B frame.
  FrameYUV decode_intra(const EncodedSegment& seg, const EncodedFrame& ef);

 private:
  // The one step from bytes to pixels: decodes the slices of `ef` into
  // `out` against the reference buffer, then deblocks it when the stream
  // does.
  void decode_frame(const EncodedFrame& ef, const Quantizer& q, FrameYUV& out);

  int width_, height_, crf_;
  bool deblock_ = false;
  bool hook_p_frames_ = false;
  ReferenceHook hook_;

  // Warm decode state: two-slot reference buffer plus per-frame slice
  // scratch, all capacity-reused so steady-state decode stays off the heap.
  FrameYUV ref_past_, ref_last_;
  std::vector<SliceSpan> spans_;
  std::vector<std::size_t> slice_offsets_;
};

}  // namespace dcsr::codec

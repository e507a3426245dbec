#pragma once

#include <vector>

#include "codec/decoder.hpp"
#include "sr/edsr.hpp"
#include "video/source.hpp"

namespace dcsr::core {

/// Quality-measurement options for playback runs. Both strides must be
/// positive: every play_* function throws std::invalid_argument, before
/// decoding anything, otherwise.
struct PlaybackOptions {
  /// Measure PSNR on every frame but SSIM only every `ssim_stride` frames
  /// (SSIM is the expensive metric).
  int ssim_stride = 5;

  /// For the NAS baseline, which runs the (large) model on *every* frame,
  /// restrict metric evaluation — and hence inference — to every Nth frame.
  /// Quality statistics are unaffected (frames are i.i.d. samples of the
  /// same distribution); compute drops by the same factor.
  int nas_eval_stride = 7;
};

/// Quality outcome of playing one video with one method. Metric strides are
/// keyed off the display index, so two methods evaluated with the same
/// options measure SSIM on the same set of frames even when they visit
/// different subsets (e.g. NAS's nas_eval_stride sampling).
struct PlaybackResult {
  std::vector<double> frame_psnr;   // per evaluated frame
  std::vector<double> frame_ssim;   // per evaluated frame (strided)
  std::vector<int> psnr_frame_index;  // which display frames were measured
  std::vector<int> ssim_frame_index;  // which display frames got SSIM
  double mean_psnr = 0.0;
  double mean_ssim = 0.0;
};

/// Client-side dcSR (Fig. 6): decode each segment; when its I frame lands in
/// the DPB, convert YUV->RGB, run the segment's micro model (selected by
/// cluster label), convert back, resume decoding so P/B frames reference the
/// enhanced picture. `models[labels[s]]` enhances segment s. The same loop
/// as play_dcsr_anchors with anchor_period 0.
PlaybackResult play_dcsr(const codec::EncodedVideo& encoded,
                         const std::vector<int>& labels,
                         const std::vector<std::unique_ptr<sr::Edsr>>& models,
                         const VideoSource& original,
                         const PlaybackOptions& opts = {});

/// NEMO baseline (as simplified in §4): a single big model, applied in-loop
/// to I frames only — same decoder integration as dcSR, one model.
PlaybackResult play_nemo(const codec::EncodedVideo& encoded,
                         const sr::Edsr& big_model,
                         const VideoSource& original,
                         const PlaybackOptions& opts = {});

/// NAS baseline: a single big model applied out-of-loop to every decoded
/// frame before display, so references stay un-enhanced. Only the frames
/// sampled by `nas_eval_stride` are enhanced and scored. The same loop as
/// the in-loop playbacks: while the consumer scores segment s, the producer
/// decodes segment s+1 into a warm buffer and enhances its sampled frames
/// concurrently across the pool (the model's infer path is stateless);
/// results are bit-identical for any DCSR_THREADS.
PlaybackResult play_nas(const codec::EncodedVideo& encoded,
                        const sr::Edsr& big_model,
                        const VideoSource& original,
                        const PlaybackOptions& opts = {});

/// LOW baseline: the degraded stream as-is.
PlaybackResult play_low(const codec::EncodedVideo& encoded,
                        const VideoSource& original,
                        const PlaybackOptions& opts = {});

/// dcSR with NEMO-style anchor frames: besides every I frame, the micro
/// model also enhances each P-frame *reference* whose display index is a
/// multiple of `anchor_period` — bounding drift with extra inferences
/// instead of extra I-frame bits. Anchors are enhanced from a second,
/// un-enhanced decode of each segment, made on the producer side before the
/// enhanced decode and only when anchor_period > 0; anchor_period <= 0 is
/// plain dcSR. Returns quality plus the number of inferences spent.
struct AnchorPlaybackResult {
  PlaybackResult playback;
  int inferences = 0;
};
AnchorPlaybackResult play_dcsr_anchors(
    const codec::EncodedVideo& encoded, const std::vector<int>& labels,
    const std::vector<std::unique_ptr<sr::Edsr>>& models,
    const VideoSource& original, int anchor_period,
    const PlaybackOptions& opts = {});

/// In-loop I-frame enhancement steps 2-5 of Fig. 6, reusable by anything
/// that hooks the decoder: YUV->RGB, model, RGB->YUV, write back.
void enhance_reference_frame(FrameYUV& frame, const sr::Edsr& model);

}  // namespace dcsr::core

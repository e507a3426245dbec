#include "core/client_pipeline.hpp"

#include <array>
#include <optional>
#include <stdexcept>
#include <utility>

#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "util/alloc_check.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::core {

namespace {

// Accumulates per-frame metrics against the pristine source. Strides are
// keyed off the *display index*, never off how many frames a playback path
// happened to visit: every method must evaluate SSIM on the same frames or
// the Fig. 9 comparison is apples to oranges.
class MetricsCollector {
 public:
  MetricsCollector(const VideoSource& original, const PlaybackOptions& opts)
      : original_(original), opts_(opts) {}

  void measure_rgb(const FrameRGB& rgb, int display_index) {
    const FrameRGB ref = original_.frame(display_index);
    result_.frame_psnr.push_back(psnr(ref, rgb));
    result_.psnr_frame_index.push_back(display_index);
    if (display_index % opts_.ssim_stride == 0) {
      result_.frame_ssim.push_back(ssim(ref, rgb));
      result_.ssim_frame_index.push_back(display_index);
    }
  }

  PlaybackResult finish() {
    result_.mean_psnr = mean(result_.frame_psnr);
    result_.mean_ssim = mean(result_.frame_ssim);
    return std::move(result_);
  }

 private:
  const VideoSource& original_;
  PlaybackOptions opts_;
  PlaybackResult result_;
};

// Runs `produce(s)` for each segment index with one segment of lookahead:
// while segment s's frames flow through `consume(s)` (serial, display order
// — the metric path), segment s+1 already decodes and enhances on the
// producer thread. Exactly one producer task is in flight at a time, so
// producers may share decoder state without locking; consumption order —
// and therefore every accumulated metric — is identical to the serial
// program.
//
// All lookahead work runs on ONE persistent PipelineThread for the whole
// playback, so the producer's thread-local Workspace arena warms once and
// every later segment of the same resolution replays out of cache.
template <typename Produce, typename Consume>
void pipeline_segments(std::size_t count, Produce produce, Consume consume) {
  if (count == 0) return;
  std::size_t next_index = 0;
  // Named lambda, alive for the whole playback: PipelineThread::run takes a
  // non-owning FunctionRef, so the callable must outlive every run/wait pair.
  const auto task = [&] { produce(next_index); };
  // Declared AFTER everything the worker touches: if `consume` throws while a
  // lookahead task is in flight, unwinding must run ~PipelineThread (which
  // finishes the task and joins) before `task`/`next_index` die.
  PipelineThread producer;
  produce(0);
  for (std::size_t s = 0; s < count; ++s) {
    if (s > 0) producer.wait();
    if (s + 1 < count) {
      next_index = s + 1;
      producer.run(task);
    }
    consume(s);
  }
}

// Which frames a playback enhances, with which model, and where: the only
// thing the five play_* entry points differ in.
struct EnhancementPolicy {
  // models[s] enhances segment s; empty for the degraded stream.
  std::vector<const sr::Edsr*> models;
  // In loop, each P reference whose display index within its segment is a
  // multiple of this is enhanced too (NEMO-style anchors); <= 0 enhances
  // I frames only.
  int anchor_period = 0;
  // Enhance displayed frames after decoding (NAS), scoring only those whose
  // display index is a multiple of nas_eval_stride, instead of enhancing
  // references in the decoder loop.
  bool out_of_loop = false;
};

// One segment between producer and consumer: its decoded frames and, out of
// loop, the enhanced RGB of its sampled frames in display order.
struct SegmentFrames {
  std::vector<FrameYUV> yuv;
  std::vector<FrameRGB> enhanced;
};

// The playback loop: decodes every segment, enhances what `policy` asks
// for, and feeds the displayed frames to the metrics in display order.
AnchorPlaybackResult play(const codec::EncodedVideo& encoded,
                          const VideoSource& original,
                          const PlaybackOptions& opts,
                          const EnhancementPolicy& policy) {
  if (opts.ssim_stride <= 0 || opts.nas_eval_stride <= 0)
    throw std::invalid_argument(
        "play: ssim_stride and nas_eval_stride must be positive");
  const bool in_loop = !policy.models.empty() && !policy.out_of_loop;
  const bool anchors = in_loop && policy.anchor_period > 0;
  const int stride = opts.nas_eval_stride;
  // Out of loop, segment s enhances and scores its frames first_sampled(s),
  // first_sampled(s) + stride, ...: those whose display index is a multiple
  // of the stride.
  const auto first_sampled = [&](std::size_t s) {
    return (stride - encoded.segments[s].first_frame % stride) % stride;
  };

  AnchorPlaybackResult result;
  MetricsCollector collector(original, opts);
  codec::Decoder decoder(encoded);
  std::size_t segment = 0;  // the segment being decoded; producer side only
  // Anchors must be enhanced from the *vanilla* decode: the micro model
  // was trained on plainly decoded frames, and re-enhancing an
  // already-enhanced chain compounds the correction until it diverges
  // (this is why NEMO keeps its anchor inputs on the un-enhanced path).
  codec::Decoder vanilla_decoder(encoded);
  std::vector<FrameYUV> vanilla;  // display order, segment `segment`
  if (in_loop)
    decoder.set_reference_hook(
        [&](FrameYUV& f, codec::FrameType type, int display_index) {
          if (type == codec::FrameType::kP) {
            // P anchor: replace the drifted reference with the enhanced
            // vanilla reconstruction — an I-refresh that costs an inference
            // instead of bits.
            const int local =
                display_index - encoded.segments[segment].first_frame;
            if (local % policy.anchor_period != 0) return;
            f = vanilla[static_cast<std::size_t>(local)];
          }
          enhance_reference_frame(f, *policy.models[segment]);
          ++result.inferences;
        },
        anchors);

  // Two rotating segment buffers: produce(s) decodes (and enhances) into
  // buffer s%2 while the consumer still reads s-1's, so the single-lookahead
  // pipeline reuses the same frame storage for the whole playback. In loop,
  // the consumer converts one frame at a time into one warm RGB frame and
  // scores it while it is still in cache, so no segment ever exists in RGB.
  std::array<SegmentFrames, 2> bufs;
  const auto produce = [&](std::size_t s) {
    // Segment 0 legitimately grows frame slots, workspace tensors and pool
    // scratch, but every later segment of the same resolution must be
    // heap-silent (sanctioned growth aside): the guard makes a regression
    // throw instead of silently costing a malloc per frame.
    std::optional<HotPathGuard> warm;
    if (s > 0) warm.emplace("core/client_pipeline.cpp:play(warm)");
    segment = s;
    SegmentFrames& buf = bufs[s % 2];
    if (anchors)
      vanilla_decoder.decode_segment_into(encoded.segments[s], vanilla);
    decoder.decode_segment_into(encoded.segments[s], buf.yuv);
    if (!policy.out_of_loop) return;

    // Out of loop, the sampled frames fan out across the pool: each is
    // converted and super-resolved independently against the one shared
    // model (infer touches no member state, so concurrent calls are safe),
    // each task writing only its own output frames.
    const int len = static_cast<int>(buf.yuv.size());
    const int first = first_sampled(s);
    const int n = first < len ? (len - 1 - first) / stride + 1 : 0;
    if (buf.enhanced.size() < static_cast<std::size_t>(n)) {
      AllocAllowScope allow;
      buf.enhanced.resize(static_cast<std::size_t>(n));
    }
    const sr::Edsr& model = *policy.models[s];
    parallel_for_writes(
        0, n, 1,
        [&](std::int64_t lo, std::int64_t hi) {
          return span_of(buf.enhanced.data() + lo,
                         static_cast<std::size_t>(hi - lo));
        },
        [&](std::int64_t lo, std::int64_t hi) {
          thread_local FrameRGB rgb;
          for (std::int64_t k = lo; k < hi; ++k) {
            yuv420_to_rgb_into(
                buf.yuv[static_cast<std::size_t>(first + k * stride)], rgb);
            model.enhance_into(rgb, buf.enhanced[static_cast<std::size_t>(k)]);
          }
        },
        "core/client_pipeline.cpp:play(out-of-loop)");
  };

  FrameRGB rgb;
  pipeline_segments(encoded.segments.size(), produce, [&](std::size_t s) {
    const SegmentFrames& buf = bufs[s % 2];
    const int base = encoded.segments[s].first_frame;
    const int len = static_cast<int>(buf.yuv.size());
    if (policy.out_of_loop) {
      std::size_t k = 0;
      for (int i = first_sampled(s); i < len; i += stride)
        collector.measure_rgb(buf.enhanced[k++], base + i);
      return;
    }
    for (int i = 0; i < len; ++i) {
      yuv420_to_rgb_into(buf.yuv[static_cast<std::size_t>(i)], rgb);
      collector.measure_rgb(rgb, base + i);
    }
  });
  result.playback = collector.finish();
  return result;
}

// The policy that enhances every segment with one model.
EnhancementPolicy one_model(const codec::EncodedVideo& encoded,
                            const sr::Edsr& model, bool out_of_loop) {
  return {std::vector<const sr::Edsr*>(encoded.segments.size(), &model), 0,
          out_of_loop};
}

}  // namespace

void enhance_reference_frame(FrameYUV& frame, const sr::Edsr& model) {
  if (model.config().scale != 1)
    throw std::invalid_argument(
        "enhance_reference_frame: in-loop enhancement requires a scale-1 model "
        "(the enhanced picture must fit back into the DPB)");
  // Steps 2-5 of Fig. 6. The two RGB intermediates are per-thread and reused
  // across calls — like the model's inference workspace — so steady-state
  // in-loop enhancement stays off the allocator.
  thread_local FrameRGB rgb, enhanced;
  yuv420_to_rgb_into(frame, rgb);
  model.enhance_into(rgb, enhanced);
  rgb_to_yuv420_into(enhanced, frame);
}

PlaybackResult play_dcsr(const codec::EncodedVideo& encoded,
                         const std::vector<int>& labels,
                         const std::vector<std::unique_ptr<sr::Edsr>>& models,
                         const VideoSource& original,
                         const PlaybackOptions& opts) {
  return play_dcsr_anchors(encoded, labels, models, original,
                           /*anchor_period=*/0, opts)
      .playback;
}

PlaybackResult play_nemo(const codec::EncodedVideo& encoded, const sr::Edsr& big_model,
                         const VideoSource& original, const PlaybackOptions& opts) {
  return play(encoded, original, opts, one_model(encoded, big_model, false))
      .playback;
}

PlaybackResult play_nas(const codec::EncodedVideo& encoded, const sr::Edsr& big_model,
                        const VideoSource& original, const PlaybackOptions& opts) {
  return play(encoded, original, opts, one_model(encoded, big_model, true))
      .playback;
}

PlaybackResult play_low(const codec::EncodedVideo& encoded,
                        const VideoSource& original, const PlaybackOptions& opts) {
  return play(encoded, original, opts, {}).playback;
}

AnchorPlaybackResult play_dcsr_anchors(
    const codec::EncodedVideo& encoded, const std::vector<int>& labels,
    const std::vector<std::unique_ptr<sr::Edsr>>& models,
    const VideoSource& original, int anchor_period, const PlaybackOptions& opts) {
  if (labels.size() != encoded.segments.size())
    throw std::invalid_argument("play_dcsr: one label per segment required");
  EnhancementPolicy policy{{}, anchor_period, false};
  for (const int l : labels) {
    if (l < 0 || static_cast<std::size_t>(l) >= models.size())
      throw std::invalid_argument("play_dcsr: label out of range");
    policy.models.push_back(models[static_cast<std::size_t>(l)].get());
  }
  return play(encoded, original, opts, policy);
}

}  // namespace dcsr::core

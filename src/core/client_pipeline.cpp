#include "core/client_pipeline.hpp"

#include <array>
#include <functional>
#include <stdexcept>
#include <utility>

#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "util/alloc_check.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::core {

namespace {

// Runs `fn` under a hot-path guard once playback is past its warm-up
// segment: segment 0 legitimately grows frame slots, workspace tensors and
// pool scratch, but every later segment of the same resolution must be
// heap-silent (sanctioned growth aside), and the guard makes a regression
// throw instead of silently costing a malloc per frame.
template <typename Fn>
void guarded_after_warmup(bool warm, const char* site, Fn&& fn) {
  if (warm) {
    HotPathGuard alloc_guard(site);
    fn();
  } else {
    fn();
  }
}

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
// while segment s's frames flow through `consume` (serial, display order —
// the metric path), segment s+1 already decodes and enhances its I frame on
// the producer thread. Exactly one producer task is in flight at a time, so
// producers may share decoder state without locking; consumption order —
// and therefore every accumulated metric — is identical to the serial
// program.
//
// All lookahead work runs on ONE persistent PipelineThread for the whole
// playback. std::async handed every segment to a fresh thread, so the
// producer's thread-local Workspace arena started cold each segment and the
// steady-state zero-miss guarantee stopped at segment boundaries (the PR-4
// caveat); with a persistent thread the arena warms once and every later
// segment of the same resolution replays out of cache.
template <typename T, typename Produce, typename Consume>
void pipeline_segments(std::size_t count, Produce produce, Consume consume) {
  if (count == 0) return;
  std::size_t next_index = 0;
  T next_result{};
  // Named lambda, alive for the whole playback: PipelineThread::run takes a
  // non-owning FunctionRef, so the callable must outlive every run/wait pair.
  const auto task = [&] { next_result = produce(next_index); };
  // Declared AFTER everything the worker touches: if `consume` throws while a
  // lookahead task is in flight, unwinding must run ~PipelineThread (which
  // finishes the task and joins) before `task`/`next_result`/`next_index` die.
  PipelineThread producer;
  for (std::size_t s = 0; s < count; ++s) {
    T current{};
    if (s == 0) {
      current = produce(0);
    } else {
      producer.wait();
      current = std::move(next_result);
    }
    if (s + 1 < count) {
      next_index = s + 1;
      producer.run(task);
    }
    consume(std::move(current), s);
  }
}

// Called on each reference the playback decoder hands out: every I frame,
// and every P frame too when asked for. `segment` indexes encoded.segments;
// `local` is the frame's display index within that segment.
using PlaybackHook = std::function<void(FrameYUV& frame, codec::FrameType type,
                                        std::size_t segment, int local)>;

// The in-loop playback loop: decodes every segment with the given reference
// hook (may be empty) and feeds all display frames to the collector.
PlaybackResult decode_and_measure(const codec::EncodedVideo& encoded,
                                  const VideoSource& original,
                                  const PlaybackOptions& opts,
                                  const PlaybackHook& hook,
                                  bool include_p_frames = false) {
  MetricsCollector collector(original, opts);
  codec::Decoder decoder(encoded);
  std::size_t segment = 0;  // the segment being decoded; producer side only
  if (hook)
    decoder.set_reference_hook(
        [&](FrameYUV& f, codec::FrameType type, int display_index) {
          hook(f, type, segment,
               display_index - encoded.segments[segment].first_frame);
        },
        include_p_frames);
  // Two rotating YUV segment buffers: produce(s) decodes into buffer s%2
  // while the consumer still reads s-1's (the other one), so the
  // single-lookahead pipeline reuses the same frame storage for the whole
  // playback. The producer only decodes (and enhances in-loop); the consumer
  // converts one frame at a time into one warm RGB frame and scores it while
  // it is still in cache, so no segment ever exists in RGB.
  std::array<std::vector<FrameYUV>, 2> yuv_bufs;
  const auto produce = [&](std::size_t s) {
    segment = s;
    std::vector<FrameYUV>& buf = yuv_bufs[s % 2];
    decoder.decode_segment_into(encoded.segments[s], buf);
    return &buf;
  };

  FrameRGB rgb;
  int frame_base = 0;  // display index of the consumed segment's first frame
  pipeline_segments<std::vector<FrameYUV>*>(
      encoded.segments.size(), produce,
      [&](std::vector<FrameYUV>* frames, std::size_t) {
        for (std::size_t i = 0; i < frames->size(); ++i) {
          yuv420_to_rgb_into((*frames)[i], rgb);
          collector.measure_rgb(rgb, frame_base + static_cast<int>(i));
        }
        frame_base += static_cast<int>(frames->size());
      });
  return collector.finish();
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
  return decode_and_measure(
      encoded, original, opts,
      [&](FrameYUV& f, codec::FrameType, std::size_t, int) {
        enhance_reference_frame(f, big_model);
      });
}

PlaybackResult play_nas(const codec::EncodedVideo& encoded, const sr::Edsr& big_model,
                        const VideoSource& original, const PlaybackOptions& opts) {
  MetricsCollector collector(original, opts);
  codec::Decoder decoder(encoded);
  // One slot per sampled frame, hoisted out of the segment loop so the
  // conversion and enhancement buffers stay warm from segment to segment.
  // Grouping a task's buffers in one struct keeps the parallel section's
  // write claim a single contiguous span over the slots it owns.
  struct NasSlot {
    int display = 0;
    const FrameYUV* yuv = nullptr;  // borrowed from this segment's decode
    FrameRGB rgb;                   // YUV->RGB scratch
    FrameRGB enhanced;              // model output
  };
  std::vector<NasSlot> slots;
  int frame_base = 0;
  std::size_t seg_index = 0;
  for (const auto& seg : encoded.segments) {
    const auto frames = decoder.decode_segment(seg);
    std::size_t sampled = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const int display = frame_base + static_cast<int>(i);
      if (display % opts.nas_eval_stride != 0) continue;
      if (sampled == slots.size()) slots.emplace_back();
      slots[sampled].display = display;
      slots[sampled].yuv = &frames[i];
      ++sampled;
    }
    // Out-of-loop enhancement fans out across the pool: every sampled frame
    // is YUV->RGB converted and super-resolved independently against the one
    // shared model (infer touches no member state, so concurrent calls are
    // safe), each task writing only its own slots. Metrics then accumulate
    // serially in display order, keeping results bit-identical for any
    // DCSR_THREADS.
    guarded_after_warmup(
        seg_index > 0, "core/client_pipeline.cpp:play_nas(warm)", [&] {
          parallel_for_writes(
              0, static_cast<std::int64_t>(sampled), 1,
              [&](std::int64_t lo, std::int64_t hi) {
                return span_of(slots.data() + lo,
                               static_cast<std::size_t>(hi - lo));
              },
              [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi; ++i) {
                  NasSlot& slot = slots[static_cast<std::size_t>(i)];
                  yuv420_to_rgb_into(*slot.yuv, slot.rgb);
                  big_model.enhance_into(slot.rgb, slot.enhanced);
                }
              },
              "core/client_pipeline.cpp:play_nas");
        });
    for (std::size_t i = 0; i < sampled; ++i)
      collector.measure_rgb(slots[i].enhanced, slots[i].display);
    frame_base += static_cast<int>(frames.size());
    ++seg_index;
  }
  return collector.finish();
}

PlaybackResult play_low(const codec::EncodedVideo& encoded,
                        const VideoSource& original, const PlaybackOptions& opts) {
  return decode_and_measure(encoded, original, opts, {});
}

AnchorPlaybackResult play_dcsr_anchors(
    const codec::EncodedVideo& encoded, const std::vector<int>& labels,
    const std::vector<std::unique_ptr<sr::Edsr>>& models,
    const VideoSource& original, int anchor_period, const PlaybackOptions& opts) {
  if (labels.size() != encoded.segments.size())
    throw std::invalid_argument("play_dcsr: one label per segment required");
  for (const int l : labels)
    if (l < 0 || static_cast<std::size_t>(l) >= models.size())
      throw std::invalid_argument("play_dcsr: label out of range");

  AnchorPlaybackResult result;
  const bool anchors = anchor_period > 0;
  // Anchors must be enhanced from the *vanilla* decode: the micro model
  // was trained on plainly decoded frames, and re-enhancing an
  // already-enhanced chain compounds the correction until it diverges
  // (this is why NEMO keeps its anchor inputs on the un-enhanced path).
  codec::Decoder vanilla_decoder(encoded);
  std::vector<FrameYUV> vanilla;  // display order, segment `vanilla_of`
  std::size_t vanilla_of = encoded.segments.size();
  result.playback = decode_and_measure(
      encoded, original, opts,
      [&](FrameYUV& f, codec::FrameType type, std::size_t s, int local) {
        // A segment's first hook call is its leading I frame. The vanilla
        // decode grows frame slots, so it stays outside the warm guard.
        if (anchors && vanilla_of != s) {
          vanilla_decoder.decode_segment_into(encoded.segments[s], vanilla);
          vanilla_of = s;
        }
        guarded_after_warmup(
            s > 0, "core/client_pipeline.cpp:play_dcsr(warm)", [&] {
              if (type == codec::FrameType::kP) {
                // P anchor: replace the drifted reference with the enhanced
                // vanilla reconstruction — an I-refresh that costs an
                // inference instead of bits.
                if (local % anchor_period != 0) return;
                f = vanilla[static_cast<std::size_t>(local)];
              }
              enhance_reference_frame(
                  f, *models[static_cast<std::size_t>(labels[s])]);
              ++result.inferences;
            });
      },
      /*include_p_frames=*/anchors);
  return result;
}

}  // namespace dcsr::core

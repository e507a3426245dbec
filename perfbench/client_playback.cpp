// client_playback: core::play_dcsr repeated on a 30 s, 320x192 animation
// video, whose stream and micro models the server pipeline produces during
// set-up. 30 s rather than 60 s keeps a pass short enough that a run holds
// several of them.
// It stresses codec decode and single-frame in-loop SR inference. At the
// quickstart's 96x64 a pass lasts ~0.2 s with ~2 ms of SR per I frame, too
// short to time steadily and far from the paper's frame sizes; paper-scale
// 1280x720 costs seconds per frame on a CPU.

#include <bit>
#include <cstdint>

#include "bench.hpp"
#include "core/dcsr.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "inputs.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace dcsr;

constexpr std::uint64_t kBaseSeed = 7;
constexpr int kWidth = 320, kHeight = 192;
constexpr double kSeconds = 30.0;
constexpr std::size_t kSetups = 2;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_quality(const core::PlaybackResult& a, const core::PlaybackResult& b) {
  return same_bits(a.mean_psnr, b.mean_psnr) && same_bits(a.mean_ssim, b.mean_ssim);
}

struct TracedPlayback {
  core::PlaybackResult quality;
  std::uint64_t misses_after_first = 0;  // workspace misses after segment 0
  int frames_after_first = 0;
};

// play_dcsr's decode loop (decode_and_measure in
// src/core/client_pipeline.cpp) with a span around each call into a layer.
// It runs the segments serially, without the one-segment lookahead, and
// measures the same frames in the same order, so its mean PSNR and SSIM
// must equal play_dcsr's bit for bit.
TracedPlayback traced_play(const core::ServerResult& server,
                           const VideoSource& original, Tracer& tr) {
  const core::PlaybackOptions opts;
  const codec::EncodedVideo& encoded = server.encoded;
  Tracer::Scope whole(tr, "core.play");
  codec::Decoder decoder(encoded.width, encoded.height, encoded.crf);
  decoder.set_deblock(encoded.deblock);

  TracedPlayback out;
  std::vector<FrameRGB> rgb;
  std::vector<double> frame_psnr, frame_ssim;
  std::uint64_t misses0 = 0;
  int display = 0, first_segment_frames = 0;
  for (std::size_t s = 0; s < encoded.segments.size(); ++s) {
    if (s == 1) {
      misses0 = workspace_misses();
      first_segment_frames = display;
    }
    const sr::Edsr& model =
        *server.micro_models[static_cast<std::size_t>(server.labels[s])];
    decoder.set_reference_hook([&tr, &model](FrameYUV& f, codec::FrameType, int) {
      Tracer::Scope span(tr, "sr.enhance");
      core::enhance_reference_frame(f, model);
    });
    std::vector<FrameYUV> frames;
    {
      Tracer::Scope span(tr, "codec.decode");
      frames = decoder.decode_segment(encoded.segments[s]);
    }
    {
      Tracer::Scope span(tr, "image.convert");
      rgb.resize(frames.size());
      parallel_for_writes(
          0, static_cast<std::int64_t>(frames.size()), 1,
          [&](std::int64_t lo, std::int64_t hi) {
            return span_of(rgb.data() + lo, static_cast<std::size_t>(hi - lo));
          },
          [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t i = lo; i < hi; ++i)
              yuv420_to_rgb_into(frames[static_cast<std::size_t>(i)],
                                 rgb[static_cast<std::size_t>(i)]);
          },
          "perfbench/client_playback.cpp:traced_play(convert)");
    }
    for (std::size_t i = 0; i < frames.size(); ++i, ++display) {
      FrameRGB ref;
      {
        Tracer::Scope span(tr, "video.render");
        ref = original.frame(display);
      }
      Tracer::Scope span(tr, "image.metrics");
      frame_psnr.push_back(psnr(ref, rgb[i]));
      if (display % opts.ssim_stride == 0) frame_ssim.push_back(ssim(ref, rgb[i]));
    }
  }
  if (encoded.segments.size() > 1) {
    out.misses_after_first = workspace_misses() - misses0;
    out.frames_after_first = display - first_segment_frames;
  }
  out.quality.mean_psnr = mean(frame_psnr);
  out.quality.mean_ssim = mean(frame_ssim);
  return out;
}

// Per-layer metrics of the `passes` traced passes recorded in `tr`.
void report_stages(const Tracer& tr, int passes, const std::string& suffix,
                   Report& report) {
  if (passes == 0) return;
  const auto put = [&](const std::string& name, double value) {
    report.set(name + suffix, value);
  };
  std::vector<double> enhance_ms = tr.durations("sr.enhance");
  for (double& ms : enhance_ms) ms *= 1e3;
  put("codec.decode_s", tr.self_total("codec.decode") / passes);
  if (!enhance_ms.empty()) put("sr.enhance_ms_p50", median(enhance_ms));
  put("image.convert_s", tr.total("image.convert") / passes);
  put("image.metrics_s", tr.total("image.metrics") / passes);
  put("video.render_s", tr.total("video.render") / passes);
  put("core.play_traced_s", tr.total("core.play") / passes);
  if (suffix.empty() && !enhance_ms.empty())
    report.set("sr.enhance_ms_p95", percentile(enhance_ms, 95.0));
}

}  // namespace

void run_client_playback(const Options& opts, Report& report) {
  const core::ServerConfig cfg = quickstart_server_config();

  // Set-up, repeated: draw the video, prepare it on the server, and warm the
  // client with one pass. Every set-up must reproduce the first one's
  // models, and every later pass its quality.
  std::vector<double> setup_s;
  std::unique_ptr<GrainedVideo> video;
  core::ServerResult server;
  core::PlaybackResult reference;
  for (std::size_t i = 0; i < (opts.trace ? 1 : kSetups); ++i) {
    const double t0 = now_s();
    video = seeded_video(Genre::kAnimation, kBaseSeed, opts.seed, kWidth, kHeight,
                         kSeconds, 10.0);
    core::ServerResult prepared = core::run_server_pipeline(*video, cfg);
    const core::PlaybackResult warm =
        core::play_dcsr(prepared.encoded, prepared.labels, prepared.micro_models, *video);
    setup_s.push_back(now_s() - t0);
    if (i == 0) {
      server = std::move(prepared);
      reference = warm;
    } else {
      report.outcomes.run([&] {
        return fingerprint(prepared) == fingerprint(server) && same_quality(warm, reference);
      });
    }
  }
  const int frames = video->frame_count();

  std::vector<double> untraced_s;
  const auto untraced = [&] {
    report.outcomes.run([&] {
      const double t0 = now_s();
      const core::PlaybackResult result =
          core::play_dcsr(server.encoded, server.labels, server.micro_models, *video);
      untraced_s.push_back(now_s() - t0);
      return same_quality(result, reference);
    });
  };

  const double start = now_s();
  if (!opts.trace) {
    // Timed passes run on one pool thread; the segment lookahead still
    // overlaps. On a shared host, passes at the pool's full size drifted
    // twice as far between runs as single-thread ones, and the traced run
    // reports the thread scaling.
    PoolThreads single(1, opts.threads);
    do untraced();
    while (now_s() - start < opts.seconds);

    const ViewerOutcome viewer = viewer_outcome(*video, server, reference.mean_psnr);
    report.outcomes.run([&] { return viewer.gain_db > 0.0; });
    const double play_s = median(untraced_s);
    report.set("setup_s", median(setup_s));
    report.note_samples("set-up", setup_s);
    report.note_samples("play_dcsr", untraced_s);
    report.set("op_s", play_s);
    report.set("items_per_s", frames / play_s);
    report.set("quality_db", viewer.gain_db);
    report.set("wire_kb_per_session", viewer.wire_kb);
    report.note("playback_fps = %.3f frames/s (%d frames; k = %d, %zu segments)",
                frames / play_s, frames, server.k, server.segments.size());
    report.note("psnr_gain_db = %.4f dB", viewer.gain_db);
    report.note("stream_kb = %.2f KB (models %.2f)", viewer.wire_kb, viewer.model_kb);
    return;
  }

  // Traced: alternate untraced and traced passes until the run has lasted
  // its time and enough I-frame enhancements lie beyond their p95, then one
  // traced pass at one thread.
  std::vector<double> traced_s;
  std::uint64_t misses = 0;
  int frames_after_first = 0;
  const std::size_t enhance_samples = samples_for_percentile(95.0);
  do {
    untraced();
    report.outcomes.run([&] {
      const double t0 = now_s();
      const TracedPlayback traced = traced_play(server, *video, report.tracer);
      traced_s.push_back(now_s() - t0);
      misses += traced.misses_after_first;
      frames_after_first += traced.frames_after_first;
      return same_quality(traced.quality, reference);
    });
  } while ((now_s() - start < opts.seconds ||
            report.tracer.count("sr.enhance") < enhance_samples) &&
           report.outcomes.failed() == 0);
  {
    PoolThreads single(1, opts.threads);
    report.outcomes.run([&] {
      return same_quality(traced_play(server, *video, report.tracer_t1).quality,
                          reference);
    });
  }

  const Tracer& tr = report.tracer;
  const int passes = static_cast<int>(tr.count("core.play"));
  if (passes == 0 || untraced_s.empty() || traced_s.empty()) return;
  report_stages(tr, passes, "", report);
  report_stages(report.tracer_t1, 1, "_t1", report);

  const double enhance_calls = static_cast<double>(tr.count("sr.enhance"));
  const double decode_s = tr.self_total("codec.decode") / passes;
  const double stage_self_s =
      decode_s + (tr.total("sr.enhance") + tr.total("image.convert") +
                  tr.total("video.render") + tr.total("image.metrics")) /
                     passes;
  report.set("codec.decode_fps", frames / decode_s);
  report.set("sr.enhance_calls", enhance_calls / passes);
  report.set("sr.enhance_gflop_per_s",
             enhance_calls * static_cast<double>(sr::edsr_flops(cfg.micro, kWidth, kHeight)) /
                 tr.total("sr.enhance") / 1e9);
  report.set("core.overlap", stage_self_s / median(untraced_s));
  report.set("tensor.ws_misses_per_frame",
             frames_after_first > 0 ? static_cast<double>(misses) / frames_after_first : 0.0);
  report.set("trace.overhead_s", median(traced_s) - median(untraced_s));
}

}  // namespace perfbench

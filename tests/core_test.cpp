#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/baselines.hpp"
#include "core/client_pipeline.hpp"
#include "core/server_pipeline.hpp"
#include "simd/dispatch.hpp"
#include "sr/min_model.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "stream/session.hpp"
#include "util/thread_pool.hpp"
#include "video/genres.hpp"

namespace dcsr::core {
namespace {

// Small-but-real configuration used across these tests: tiny models and few
// iterations so the full pipeline runs in seconds.
ServerConfig tiny_config() {
  ServerConfig cfg;
  cfg.codec.crf = 51;  // the paper's operating point, where SR gains are large
  cfg.codec.intra_period = 10;
  cfg.vae = {.input_size = 16, .latent_dim = 4, .base_channels = 4, .hidden = 32};
  cfg.vae_epochs = 8;
  cfg.micro = {.n_filters = 8, .n_resblocks = 2, .scale = 1};
  cfg.big = {.n_filters = 32, .n_resblocks = 4, .scale = 1};
  cfg.k_max = 5;
  cfg.training = {.iterations = 400, .patch_size = 24, .batch_size = 2, .lr = 3e-3};
  cfg.seed = 3;
  return cfg;
}

std::unique_ptr<SyntheticVideo> tiny_video(std::uint64_t seed = 11) {
  // Music-video pacing (short shots, strong recurrence) guarantees several
  // segments and shared clusters even in a 30-second clip.
  return make_genre_video(Genre::kMusicVideo, seed, 64, 48, 30.0, 15.0);
}

// The pipeline runs take seconds; share one run across assertions.
struct PipelineFixture : ::testing::Test {
  static void SetUpTestSuite() {
    video = tiny_video().release();
    result = new ServerResult(run_server_pipeline(*video, tiny_config()));
  }
  static void TearDownTestSuite() {
    delete result;
    delete video;
    result = nullptr;
    video = nullptr;
  }
  static SyntheticVideo* video;
  static ServerResult* result;
};
SyntheticVideo* PipelineFixture::video = nullptr;
ServerResult* PipelineFixture::result = nullptr;

TEST_F(PipelineFixture, SegmentsCoverVideo) {
  int total = 0;
  for (const auto& s : result->segments) total += s.frame_count;
  EXPECT_EQ(total, video->frame_count());
  EXPECT_EQ(result->encoded.frame_count(), video->frame_count());
}

TEST_F(PipelineFixture, OneLabelPerSegmentWithinK) {
  ASSERT_EQ(result->labels.size(), result->segments.size());
  for (const int l : result->labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, result->k);
  }
}

TEST_F(PipelineFixture, OneModelPerCluster) {
  EXPECT_EQ(result->micro_models.size(), static_cast<std::size_t>(result->k));
  for (const auto& m : result->micro_models)
    EXPECT_EQ(m->config().n_filters, 8);
  EXPECT_GT(result->micro_model_bytes, 0u);
  EXPECT_GT(result->train_flops, 0u);
}

TEST_F(PipelineFixture, KRespectsBounds) {
  const ServerConfig cfg = tiny_config();
  EXPECT_GE(result->k, 2);
  EXPECT_LE(result->k, cfg.k_max);
  const int size_bound = sr::max_micro_models(cfg.big, cfg.micro);
  EXPECT_LE(result->k, size_bound);
  EXPECT_FALSE(result->silhouette_curve.empty());
}

TEST_F(PipelineFixture, ManifestIsConsistent) {
  const stream::Manifest m = result->manifest();
  EXPECT_EQ(m.segments.size(), result->segments.size());
  EXPECT_EQ(m.model_bytes.size(), static_cast<std::size_t>(result->k));
  for (const auto b : m.model_bytes) EXPECT_EQ(b, result->micro_model_bytes);
  EXPECT_EQ(m.total_video_bytes(), result->encoded.size_bytes());
}

TEST_F(PipelineFixture, DcsrPlaybackBeatsLow) {
  // The headline quality property: in-loop micro-model enhancement must
  // improve PSNR over the degraded stream.
  PlaybackOptions opts;
  const PlaybackResult low = play_low(result->encoded, *video, opts);
  const PlaybackResult dcsr =
      play_dcsr(result->encoded, result->labels, result->micro_models, *video, opts);
  EXPECT_EQ(low.frame_psnr.size(), static_cast<std::size_t>(video->frame_count()));
  EXPECT_GT(dcsr.mean_psnr, low.mean_psnr + 0.15);
  EXPECT_GE(dcsr.mean_ssim, low.mean_ssim - 5e-3);
}

TEST_F(PipelineFixture, RecurringSegmentsShareModels) {
  // News content revisits scenes, so there must be fewer clusters than
  // segments — the redundancy dcSR monetises.
  EXPECT_LT(static_cast<std::size_t>(result->k), result->labels.size());
  // And the session must hit the cache at least once.
  const auto session = stream::simulate_session(result->manifest());
  EXPECT_GT(session.cache_hits, 0);
}

TEST(CollectIFramePairs, PairsMatchSegmentIFrames) {
  const auto video = tiny_video(21);
  ServerConfig cfg = tiny_config();
  const auto segments = split::variable_segments(*video, cfg.segmenter);
  const auto encoded = codec::Encoder(cfg.codec).encode(*video, segments);
  const auto iframes = collect_iframe_pairs(*video, encoded, segments);
  ASSERT_EQ(iframes.size(), segments.size());
  for (std::size_t s = 0; s < iframes.size(); ++s) {
    ASSERT_GE(iframes[s].pairs.size(), 1u);
    const auto& p = iframes[s].pairs.front();
    EXPECT_EQ(p.lo.width(), video->width());
    // The lo frame is the decoded (degraded) I frame; it must resemble but
    // not equal the original.
    const double q = psnr(p.lo, p.hi);
    EXPECT_GT(q, 10.0);
    EXPECT_LT(q, 60.0);
  }
}

bool same_bytes(const Plane& a, const Plane& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Every training pair's `lo` must be, byte for byte, the RGB view of the
// frame a client Decoder's reference hook sees for that I frame.
void expect_lo_frames_are_dpb_frames(const VideoSource& video,
                                     const codec::EncodedVideo& encoded,
                                     const std::vector<codec::SegmentPlan>& plan) {
  std::vector<FrameRGB> dpb;  // hook order = I frames in coding order
  codec::Decoder dec(encoded.width, encoded.height, encoded.crf);
  dec.set_deblock(encoded.deblock);
  dec.set_reference_hook([&](FrameYUV& f, codec::FrameType type, int) {
    if (type == codec::FrameType::kI) dpb.push_back(yuv420_to_rgb(f));
  });
  for (const auto& seg : encoded.segments) (void)dec.decode_segment(seg);

  std::size_t n = 0;
  for (const auto& seg : collect_iframe_pairs(video, encoded, plan))
    for (const auto& pair : seg.pairs) {
      ASSERT_LT(n, dpb.size());
      const FrameRGB& want = dpb[n++];
      EXPECT_TRUE(same_bytes(pair.lo.r, want.r) && same_bytes(pair.lo.g, want.g) &&
                  same_bytes(pair.lo.b, want.b))
          << "I frame " << n - 1;
    }
  EXPECT_EQ(n, dpb.size());
}

TEST(CollectIFramePairs, LoFramesAreTheClientDpbFrames) {
  const auto video = make_genre_video(Genre::kNews, 23, 64, 48, 3.0, 15.0);
  const std::vector<codec::SegmentPlan> plan = {{0, 20}, {20, 25}};
  for (const int slices : {1, 3}) {
    for (const bool deblock : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "slices=" << slices
                                        << " deblock=" << deblock);
      codec::CodecConfig cfg;
      cfg.crf = 40;
      cfg.intra_period = 8;  // several I frames per segment
      cfg.use_b_frames = true;
      cfg.slices = slices;
      cfg.deblock = deblock;
      expect_lo_frames_are_dpb_frames(
          *video, codec::Encoder(cfg).encode(*video, plan), plan);
    }
  }
}

TEST(Baselines, BigModelTrainsAndEnhances) {
  const auto video = tiny_video(22);
  ServerConfig scfg = tiny_config();
  const auto segments = split::variable_segments(*video, scfg.segmenter);
  const auto encoded = codec::Encoder(scfg.codec).encode(*video, segments);

  BaselineConfig bcfg;
  bcfg.big = {.n_filters = 8, .n_resblocks = 2, .scale = 1};
  bcfg.training_frames = 6;
  bcfg.training = {.iterations = 500, .patch_size = 24, .batch_size = 2, .lr = 3e-3};
  const BaselineResult base = train_big_model(*video, encoded, bcfg);
  ASSERT_NE(base.model, nullptr);
  EXPECT_EQ(base.model_bytes, sr::edsr_model_bytes(bcfg.big));
  EXPECT_GT(base.train_flops, 0u);

  PlaybackOptions opts;
  opts.nas_eval_stride = 17;
  const PlaybackResult low = play_low(encoded, *video, opts);
  const PlaybackResult nemo = play_nemo(encoded, *base.model, *video, opts);
  const PlaybackResult nas = play_nas(encoded, *base.model, *video, opts);
  EXPECT_GT(nemo.mean_psnr, low.mean_psnr);
  EXPECT_GT(nas.mean_psnr, low.mean_psnr);
  // NAS evaluates a strided subset only.
  EXPECT_LT(nas.frame_psnr.size(), low.frame_psnr.size());
}

TEST(Baselines, CollectWholeVideoPairsSamplesUniformly) {
  const auto video = tiny_video(23);
  ServerConfig scfg = tiny_config();
  const auto segments = split::variable_segments(*video, scfg.segmenter);
  const auto encoded = codec::Encoder(scfg.codec).encode(*video, segments);
  const auto pairs = collect_whole_video_pairs(*video, encoded, 8);
  EXPECT_GE(pairs.size(), 6u);
  EXPECT_LE(pairs.size(), 8u);
}

TEST(Baselines, CollectWholeVideoPairsDecodeWithTheStreamsLoopFilter) {
  // The big model trains on the frames playback shows: on a deblocked
  // stream every pair's lo is the deblocked decode of its frame.
  const auto video = tiny_video(23);
  ServerConfig scfg = tiny_config();
  scfg.codec.deblock = true;
  const auto segments = split::variable_segments(*video, scfg.segmenter);
  const auto encoded = codec::Encoder(scfg.codec).encode(*video, segments);
  const auto pairs = collect_whole_video_pairs(*video, encoded, 8);
  ASSERT_FALSE(pairs.empty());

  codec::Decoder dec(encoded.width, encoded.height, encoded.crf);
  dec.set_deblock(true);
  std::vector<FrameYUV> frames;
  for (const auto& seg : encoded.segments)
    for (FrameYUV& f : dec.decode_segment(seg)) frames.push_back(std::move(f));
  const std::size_t stride = std::max<std::size_t>(1, frames.size() / 8);
  const auto same = [](const Plane& a, const Plane& b) {
    return a.same_size(b) &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const FrameRGB want = yuv420_to_rgb(frames[i * stride]);
    EXPECT_TRUE(same(pairs[i].lo.r, want.r) && same(pairs[i].lo.g, want.g) &&
                same(pairs[i].lo.b, want.b))
        << "pair " << i;
  }
}

TEST(ClientPipeline, EnhanceReferenceFrameRejectsUpscalers) {
  Rng rng(1);
  sr::Edsr upscaler({.n_filters = 4, .n_resblocks = 1, .scale = 2}, rng);
  FrameYUV frame(32, 32);
  EXPECT_THROW(enhance_reference_frame(frame, upscaler), std::invalid_argument);
}

// Shared setup for the playback-path tests below: a short clip, two fixed
// segments, and untrained (but deterministic) models — quality is irrelevant
// here, only which frames get measured and which bits come out.
struct PlaybackSetup {
  std::unique_ptr<SyntheticVideo> video;
  codec::EncodedVideo encoded;
  std::vector<std::unique_ptr<sr::Edsr>> models;
  std::vector<int> labels;
};

PlaybackSetup make_playback_setup(std::uint64_t seed) {
  PlaybackSetup s;
  s.video = make_genre_video(Genre::kNews, seed, 48, 32, 4.0, 10.0);
  ServerConfig cfg = tiny_config();
  const auto segments = split::fixed_segments(s.video->frame_count(), 20);
  s.encoded = codec::Encoder(cfg.codec).encode(*s.video, segments);
  Rng rng(7);
  s.models.push_back(std::make_unique<sr::Edsr>(
      sr::EdsrConfig{.n_filters = 4, .n_resblocks = 1, .scale = 1}, rng));
  s.labels.assign(s.encoded.segments.size(), 0);
  return s;
}

TEST(ClientPipeline, AllPathsMeasureSsimOnSameFrames) {
  // SSIM striding is keyed off the display index, so every playback path —
  // including NAS, which visits only a sampled subset — must report SSIM for
  // the same set of frames whenever ssim_stride is a multiple of
  // nas_eval_stride. (A visit-count stride used to make NAS's SSIM set drift
  // with its sampling rate.)
  const PlaybackSetup s = make_playback_setup(31);
  PlaybackOptions opts;
  opts.nas_eval_stride = 3;
  opts.ssim_stride = 6;

  const sr::Edsr& model = *s.models[0];
  const PlaybackResult low = play_low(s.encoded, *s.video, opts);
  const PlaybackResult dcsr =
      play_dcsr(s.encoded, s.labels, s.models, *s.video, opts);
  const PlaybackResult nemo = play_nemo(s.encoded, model, *s.video, opts);
  const PlaybackResult nas = play_nas(s.encoded, model, *s.video, opts);
  const AnchorPlaybackResult anchors = play_dcsr_anchors(
      s.encoded, s.labels, s.models, *s.video, /*anchor_period=*/4, opts);

  ASSERT_FALSE(low.ssim_frame_index.empty());
  EXPECT_EQ(low.ssim_frame_index.size(), low.frame_ssim.size());
  for (const int idx : low.ssim_frame_index) EXPECT_EQ(idx % opts.ssim_stride, 0);

  EXPECT_EQ(dcsr.ssim_frame_index, low.ssim_frame_index);
  EXPECT_EQ(nemo.ssim_frame_index, low.ssim_frame_index);
  EXPECT_EQ(nas.ssim_frame_index, low.ssim_frame_index);
  EXPECT_EQ(anchors.playback.ssim_frame_index, low.ssim_frame_index);
}

TEST(ClientPipeline, PlaybackBitIdenticalAcrossThreadCounts) {
  // The client's concurrency (segment-pipelined decode, fanned-out NAS
  // enhancement, parallel im2col) must never change results: every
  // policy scores the same floats for DCSR_THREADS=1 and =4.
  const PlaybackSetup s = make_playback_setup(32);
  PlaybackOptions opts;
  opts.nas_eval_stride = 3;

  const int saved_threads = default_thread_count();
  const auto run_all = [&](int threads) {
    set_default_pool_threads(threads);
    std::vector<PlaybackResult> out;
    out.push_back(play_dcsr(s.encoded, s.labels, s.models, *s.video, opts));
    out.push_back(play_nas(s.encoded, *s.models[0], *s.video, opts));
    out.push_back(play_nemo(s.encoded, *s.models[0], *s.video, opts));
    out.push_back(play_low(s.encoded, *s.video, opts));
    out.push_back(play_dcsr_anchors(s.encoded, s.labels, s.models, *s.video,
                                    /*anchor_period=*/4, opts)
                      .playback);
    return out;
  };
  const auto serial = run_all(1);
  const auto threaded = run_all(4);
  set_default_pool_threads(saved_threads);

  for (std::size_t p = 0; p < serial.size(); ++p) {
    ASSERT_EQ(serial[p].frame_psnr.size(), threaded[p].frame_psnr.size());
    for (std::size_t i = 0; i < serial[p].frame_psnr.size(); ++i)
      EXPECT_EQ(serial[p].frame_psnr[i], threaded[p].frame_psnr[i])
          << "path " << p << " frame " << i;
    ASSERT_EQ(serial[p].frame_ssim.size(), threaded[p].frame_ssim.size());
    for (std::size_t i = 0; i < serial[p].frame_ssim.size(); ++i)
      EXPECT_EQ(serial[p].frame_ssim[i], threaded[p].frame_ssim[i])
          << "path " << p << " ssim sample " << i;
  }
}

TEST(ClientPipeline, PlaybackBitIdenticalAcrossBackendsAndThreadCounts) {
  // A whole in-loop dcSR pass must score the same bits on every kernel
  // backend the host runs (swapped in before the pass starts) and for
  // DCSR_THREADS=1 and =4. The model has 9 filters, so the AVX-512 tier runs
  // both its 8-channel zmm blocks and its AVX2 remainder, and the 48-pixel
  // rows end in a 16-lane tail. A fresh model's tail conv is zero, which
  // makes enhancement the identity, so every weight is redrawn: each conv's
  // bits then reach the scored frames.
  PlaybackSetup s = make_playback_setup(33);
  Rng rng(8);
  auto model = std::make_unique<sr::Edsr>(
      sr::EdsrConfig{.n_filters = 9, .n_resblocks = 1, .scale = 1}, rng);
  for (nn::Param* p : model->params()) {
    float* w = p->value.data();
    for (std::size_t i = 0; i < p->count(); ++i)
      w[i] = static_cast<float>(rng.uniform(-0.1, 0.1));
  }
  s.models.front() = std::move(model);

  const int saved_threads = default_thread_count();
  struct Run {
    std::string name;
    PlaybackResult result;
  };
  std::vector<Run> runs;
  for (const simd::Backend b : {simd::Backend::kScalar, simd::Backend::kAvx2,
                                simd::Backend::kAvx512}) {
    if (simd::table_for(b) == nullptr) continue;
    const simd::ScopedBackendForTest backend(b);
    for (const int threads : {1, 4}) {
      set_default_pool_threads(threads);
      runs.push_back({std::string(simd::backend_name(b)) + " threads=" +
                          std::to_string(threads),
                      play_dcsr(s.encoded, s.labels, s.models, *s.video)});
    }
  }
  set_default_pool_threads(saved_threads);

  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  const PlaybackResult& ref = runs.front().result;
  ASSERT_FALSE(ref.frame_psnr.empty());
  ASSERT_FALSE(ref.frame_ssim.empty());
  for (const Run& run : runs) {
    EXPECT_TRUE(same_bits(run.result.frame_psnr, ref.frame_psnr))
        << run.name << " vs " << runs.front().name;
    EXPECT_TRUE(same_bits(run.result.frame_ssim, ref.frame_ssim))
        << run.name << " vs " << runs.front().name;
  }
}

TEST(ClientPipeline, PlayDcsrValidatesLabels) {
  const auto video = tiny_video(24);
  ServerConfig cfg = tiny_config();
  // Fixed split guarantees several segments regardless of content.
  const auto segments = split::fixed_segments(video->frame_count(), 40);
  ASSERT_GE(segments.size(), 2u);
  const auto encoded = codec::Encoder(cfg.codec).encode(*video, segments);
  std::vector<std::unique_ptr<sr::Edsr>> models;
  Rng rng(2);
  models.push_back(std::make_unique<sr::Edsr>(cfg.micro, rng));
  // Wrong label count.
  EXPECT_THROW(play_dcsr(encoded, {0}, models, *video), std::invalid_argument);
  // Label out of range.
  std::vector<int> bad(encoded.segments.size(), 5);
  EXPECT_THROW(play_dcsr(encoded, bad, models, *video), std::invalid_argument);
}

TEST(ClientPipeline, RejectsNonPositiveStrides) {
  // Both strides are taken modulo a display index: a zero stride would divide
  // by zero and a negative one would act as its absolute value. Every entry
  // point rejects either before decoding anything.
  const PlaybackSetup s = make_playback_setup(34);
  const sr::Edsr& model = *s.models[0];
  for (const int bad : {0, -1}) {
    for (const bool ssim : {true, false}) {
      PlaybackOptions opts;
      (ssim ? opts.ssim_stride : opts.nas_eval_stride) = bad;
      SCOPED_TRACE((ssim ? "ssim_stride=" : "nas_eval_stride=") +
                   std::to_string(bad));
      EXPECT_THROW(play_low(s.encoded, *s.video, opts), std::invalid_argument);
      EXPECT_THROW(play_dcsr(s.encoded, s.labels, s.models, *s.video, opts),
                   std::invalid_argument);
      EXPECT_THROW(play_nemo(s.encoded, model, *s.video, opts),
                   std::invalid_argument);
      EXPECT_THROW(play_nas(s.encoded, model, *s.video, opts),
                   std::invalid_argument);
      EXPECT_THROW(play_dcsr_anchors(s.encoded, s.labels, s.models, *s.video,
                                     /*anchor_period=*/4, opts),
                   std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace dcsr::core

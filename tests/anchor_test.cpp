// Tests for the NEMO-style anchor-frame extension.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "codec/container.hpp"
#include "codec/encoder.hpp"
#include "core/client_pipeline.hpp"
#include "core/server_pipeline.hpp"
#include "split/segmenter.hpp"
#include "util/thread_pool.hpp"
#include "video/genres.hpp"

namespace dcsr::core {
namespace {

struct AnchorFixture : ::testing::Test {
  static void SetUpTestSuite() {
    video = make_genre_video(Genre::kNews, 71, 64, 48, 20.0, 15.0).release();
    ServerConfig cfg;
    cfg.codec.crf = 51;
    cfg.codec.intra_period = 0;  // no intra refresh: anchors do the work
    cfg.vae = {.input_size = 16, .latent_dim = 4, .base_channels = 4, .hidden = 32};
    cfg.vae_epochs = 6;
    cfg.micro = {.n_filters = 8, .n_resblocks = 2, .scale = 1};
    cfg.k_max = 3;
    cfg.training = {.iterations = 300, .patch_size = 24, .batch_size = 2, .lr = 3e-3};
    cfg.seed = 21;
    server = new ServerResult(run_server_pipeline(*video, cfg));
  }
  static void TearDownTestSuite() {
    delete server;
    delete video;
    server = nullptr;
    video = nullptr;
  }
  static SyntheticVideo* video;
  static ServerResult* server;
};
SyntheticVideo* AnchorFixture::video = nullptr;
ServerResult* AnchorFixture::server = nullptr;

TEST_F(AnchorFixture, ZeroPeriodMatchesPlainDcsr) {
  const PlaybackResult plain =
      play_dcsr(server->encoded, server->labels, server->micro_models, *video);
  const AnchorPlaybackResult anchored = play_dcsr_anchors(
      server->encoded, server->labels, server->micro_models, *video, 0);
  ASSERT_EQ(plain.frame_psnr.size(), anchored.playback.frame_psnr.size());
  for (std::size_t i = 0; i < plain.frame_psnr.size(); ++i)
    EXPECT_DOUBLE_EQ(plain.frame_psnr[i], anchored.playback.frame_psnr[i]);
  // One inference per I frame (= per segment, since intra_period is 0).
  EXPECT_EQ(anchored.inferences,
            static_cast<int>(server->encoded.segments.size()));
}

TEST_F(AnchorFixture, AnchorsSpendMoreInferences) {
  const auto sparse = play_dcsr_anchors(server->encoded, server->labels,
                                        server->micro_models, *video, 20);
  const auto dense = play_dcsr_anchors(server->encoded, server->labels,
                                       server->micro_models, *video, 5);
  EXPECT_GT(dense.inferences, sparse.inferences);
  EXPECT_GT(sparse.inferences,
            static_cast<int>(server->encoded.segments.size()));
}

TEST_F(AnchorFixture, AnchorsImproveQualityWithoutExtraBits) {
  // The headline property: anchors fight drift using compute, not bitrate —
  // the stream is byte-identical, quality goes up.
  const auto plain = play_dcsr_anchors(server->encoded, server->labels,
                                       server->micro_models, *video, 0);
  const auto anchored = play_dcsr_anchors(server->encoded, server->labels,
                                          server->micro_models, *video, 8);
  EXPECT_GT(anchored.playback.mean_psnr, plain.playback.mean_psnr);
}

// CRC-32 of every per-frame PSNR double followed by every SSIM double.
std::uint32_t metrics_crc(const PlaybackResult& r) {
  std::vector<std::uint8_t> bytes;
  for (const auto* v : {&r.frame_psnr, &r.frame_ssim}) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v->data());
    bytes.insert(bytes.end(), p, p + v->size() * sizeof(double));
  }
  return codec::crc32(bytes.data(), bytes.size());
}

TEST_F(AnchorFixture, Period4PlaybackIsPinned) {
  // Bit pin of anchored in-loop playback: the CRC-32 of every per-frame
  // PSNR and SSIM double, plus the inference count. Any change to where the
  // hook fires, what the anchors are enhanced from, or the metric order
  // moves these.
  const auto r = play_dcsr_anchors(server->encoded, server->labels,
                                   server->micro_models, *video, 4);
  EXPECT_EQ(metrics_crc(r.playback), 0x65217041u);
  EXPECT_EQ(r.inferences, 75);
}

TEST_F(AnchorFixture, BaselinePlaybacksArePinned) {
  // The same pin for the other four playback policies: the degraded
  // stream, dcSR, NEMO's in-loop big model and NAS's out-of-loop sampled
  // enhancement (one micro model stands in for the big one). The fixture is
  // a single segment with label 0, so dcSR and NEMO score the same bits.
  const sr::Edsr& model = *server->micro_models[0];
  PlaybackOptions nas_opts;
  nas_opts.nas_eval_stride = 3;
  EXPECT_EQ(metrics_crc(play_low(server->encoded, *video)), 0xfef87cbcu);
  EXPECT_EQ(metrics_crc(play_dcsr(server->encoded, server->labels,
                                  server->micro_models, *video)),
            0xda98b659u);
  EXPECT_EQ(metrics_crc(play_nemo(server->encoded, model, *video)),
            0xda98b659u);
  EXPECT_EQ(metrics_crc(play_nas(server->encoded, model, *video, nas_opts)),
            0xd907a4b6u);
}

TEST_F(AnchorFixture, ValidatesLabels) {
  // Out-of-range label (right count, bogus value).
  std::vector<int> bad(server->encoded.segments.size(), 99);
  EXPECT_THROW(play_dcsr_anchors(server->encoded, bad, server->micro_models,
                                 *video, 5),
               std::invalid_argument);
  // Wrong label count.
  std::vector<int> short_labels(server->encoded.segments.size() + 1, 0);
  EXPECT_THROW(play_dcsr_anchors(server->encoded, short_labels,
                                 server->micro_models, *video, 5),
               std::invalid_argument);
}

// Four segments labelled {0, 1, 1, 0} over two models that differ in width,
// depth and weights, so playback crosses segment boundaries with a model
// switch: the decode lookahead, the buffer rotation and the per-segment
// model choice all show in the scored bits. A fresh model's tail conv is
// zero, which makes enhancement the identity, so every weight is redrawn
// instead of trained: the pins need deterministic weights, not good ones.
struct MultiSegmentFixture : ::testing::Test {
  static void SetUpTestSuite() {
    video = make_genre_video(Genre::kSports, 73, 64, 48, 3.0, 15.0).release();
    codec::CodecConfig codec;
    codec.crf = 51;
    encoded = new codec::EncodedVideo(codec::Encoder(codec).encode(
        *video, split::fixed_segments(video->frame_count(), 12)));
    models = new std::vector<std::unique_ptr<sr::Edsr>>;
    Rng rng(5);
    for (const sr::EdsrConfig& cfg :
         {sr::EdsrConfig{.n_filters = 8, .n_resblocks = 2, .scale = 1},
          sr::EdsrConfig{.n_filters = 10, .n_resblocks = 1, .scale = 1}}) {
      auto model = std::make_unique<sr::Edsr>(cfg, rng);
      for (nn::Param* p : model->params()) {
        float* w = p->value.data();
        for (std::size_t i = 0; i < p->count(); ++i)
          w[i] = static_cast<float>(rng.uniform(-0.1, 0.1));
      }
      models->push_back(std::move(model));
    }
  }
  static void TearDownTestSuite() {
    delete models;
    delete encoded;
    delete video;
    models = nullptr;
    encoded = nullptr;
    video = nullptr;
  }
  static SyntheticVideo* video;
  static codec::EncodedVideo* encoded;
  static std::vector<std::unique_ptr<sr::Edsr>>* models;
};
SyntheticVideo* MultiSegmentFixture::video = nullptr;
codec::EncodedVideo* MultiSegmentFixture::encoded = nullptr;
std::vector<std::unique_ptr<sr::Edsr>>* MultiSegmentFixture::models = nullptr;

TEST_F(MultiSegmentFixture, PlaybacksArePinnedAtOneAndFourThreads) {
  ASSERT_EQ(encoded->segments.size(), 4u);
  const std::vector<int> labels{0, 1, 1, 0};
  PlaybackOptions nas_opts;
  nas_opts.nas_eval_stride = 3;
  const int saved_threads = default_thread_count();
  for (int threads : {1, 4}) {
    set_default_pool_threads(threads);
    const AnchorPlaybackResult anchored =
        play_dcsr_anchors(*encoded, labels, *models, *video, 4);
    EXPECT_EQ(metrics_crc(play_dcsr(*encoded, labels, *models, *video)),
              0x8dc8eaacu)
        << threads;
    EXPECT_EQ(metrics_crc(anchored.playback), 0xfe75939fu) << threads;
    EXPECT_EQ(anchored.inferences, 12) << threads;
    EXPECT_EQ(metrics_crc(play_nas(*encoded, *(*models)[1], *video, nas_opts)),
              0xe35978a8u)
        << threads;
  }
  set_default_pool_threads(saved_threads);
  // Label 1's segments score other bits than model 0 alone gives them.
  EXPECT_NE(metrics_crc(play_nemo(*encoded, *(*models)[0], *video)),
            0x8dc8eaacu);
}

}  // namespace
}  // namespace dcsr::core

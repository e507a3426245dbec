#include <gtest/gtest.h>

#include "cluster/kmeans.hpp"
#include "features/extractor.hpp"
#include "features/vae.hpp"
#include "nn/optim.hpp"
#include "video/scene.hpp"

namespace dcsr::features {
namespace {

// Renders frames from two visually distinct scene families.
std::vector<FrameRGB> two_family_frames(int per_family) {
  Rng rng(3);
  SceneSpec a = random_scene(rng, 0.1f, 0.3f);
  a.color_a = {0.9f, 0.1f, 0.1f};
  a.color_b = {0.8f, 0.3f, 0.2f};
  SceneSpec b = random_scene(rng, 0.1f, 0.3f);
  b.color_a = {0.1f, 0.2f, 0.9f};
  b.color_b = {0.2f, 0.4f, 0.8f};
  std::vector<FrameRGB> frames;
  for (int i = 0; i < per_family; ++i)
    frames.push_back(render_scene(a, 0.4 * i, 64, 64));
  for (int i = 0; i < per_family; ++i)
    frames.push_back(render_scene(b, 0.4 * i, 64, 64));
  return frames;
}

TEST(Thumbnail, HasRequestedShape) {
  FrameRGB f(64, 48);
  const Tensor t = make_thumbnail(f, 32);
  EXPECT_EQ(t.shape(), (Shape{1, 3, 32, 32}));
}

TEST(Vae, RejectsBadInputSize) {
  Rng rng(1);
  Vae::Config cfg;
  cfg.input_size = 30;  // not divisible by 4
  EXPECT_THROW(Vae(cfg, rng), std::invalid_argument);
}

TEST(Vae, EncodeShapes) {
  Rng rng(2);
  Vae::Config cfg;
  cfg.input_size = 16;
  cfg.latent_dim = 4;
  Vae vae(cfg, rng);
  const Tensor mu = vae.encode_mu(Tensor({2, 3, 16, 16}));
  EXPECT_EQ(mu.shape(), (Shape{2, 4}));
  const Tensor rec = vae.reconstruct(Tensor({2, 3, 16, 16}));
  EXPECT_EQ(rec.shape(), (Shape{2, 3, 16, 16}));
}

TEST(Vae, ReconstructionInUnitRange) {
  Rng rng(3);
  Vae::Config cfg;
  cfg.input_size = 16;
  Vae vae(cfg, rng);
  const Tensor rec = vae.reconstruct(Tensor::full({1, 3, 16, 16}, 0.5f));
  for (std::size_t i = 0; i < rec.size(); ++i) {
    EXPECT_GT(rec[i], 0.0f);
    EXPECT_LT(rec[i], 1.0f);
  }
}

TEST(Vae, TrainingReducesReconstructionLoss) {
  Rng rng(4);
  Vae::Config cfg;
  cfg.input_size = 16;
  cfg.latent_dim = 4;
  cfg.base_channels = 4;
  cfg.hidden = 32;
  Vae vae(cfg, rng);
  nn::Adam opt(vae.params(), 2e-3);

  // A small fixed batch of structured images.
  Tensor batch({4, 3, 16, 16});
  for (int n = 0; n < 4; ++n)
    for (int c = 0; c < 3; ++c)
      for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
          batch.at(n, c, y, x) =
              0.2f + 0.15f * static_cast<float>(n) + (c == 0 ? 0.02f * y : 0.01f * x);

  double first = 0.0, last = 0.0;
  for (int it = 0; it < 120; ++it) {
    const auto stats = vae.train_step(batch, opt, rng, 1e-4f);
    if (it == 0) first = stats.recon_mse;
    last = stats.recon_mse;
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(Vae, TrainVaeHelperRuns) {
  Rng rng(5);
  const auto frames = two_family_frames(4);
  Vae::Config cfg;
  cfg.input_size = 16;
  cfg.latent_dim = 4;
  cfg.base_channels = 4;
  cfg.hidden = 32;
  const auto vae = train_vae(make_thumbnails(frames, 16), cfg, 5, rng);
  ASSERT_NE(vae, nullptr);
  EXPECT_EQ(vae->config().latent_dim, 4);
}

TEST(Vae, LatentSpaceSeparatesVisualFamilies) {
  // After training, frames of the same scene should be closer in latent
  // space than frames of different scenes — the property §3.1.1 needs.
  Rng rng(6);
  constexpr int kPer = 6;
  const auto frames = two_family_frames(kPer);
  Vae::Config cfg;
  cfg.input_size = 16;
  cfg.latent_dim = 4;
  cfg.base_channels = 4;
  cfg.hidden = 32;
  const auto vae = train_vae(make_thumbnails(frames, 16), cfg, 40, rng);
  const cluster::Dataset feats = extract_features(*vae, frames);
  ASSERT_EQ(feats.size(), 2u * kPer);

  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  for (std::size_t i = 0; i < feats.size(); ++i)
    for (std::size_t j = i + 1; j < feats.size(); ++j) {
      const bool same = (i < kPer) == (j < kPer);
      const double d = cluster::sq_distance(feats[i], feats[j]);
      (same ? intra : inter) += d;
      (same ? n_intra : n_inter) += 1;
    }
  intra /= n_intra;
  inter /= n_inter;
  EXPECT_LT(intra, inter);
}

TEST(Vae, TrainingIsDeterministicForFixedSeed) {
  const auto frames = two_family_frames(3);
  Vae::Config cfg;
  cfg.input_size = 16;
  cfg.latent_dim = 4;
  cfg.base_channels = 4;
  cfg.hidden = 32;
  Rng a(77), b(77);
  const auto va = train_vae(make_thumbnails(frames, 16), cfg, 4, a);
  const auto vb = train_vae(make_thumbnails(frames, 16), cfg, 4, b);
  const cluster::Dataset fa = extract_features(*va, frames);
  const cluster::Dataset fb = extract_features(*vb, frames);
  for (std::size_t i = 0; i < fa.size(); ++i)
    for (std::size_t d = 0; d < fa[i].size(); ++d)
      EXPECT_EQ(fa[i][d], fb[i][d]);
}

TEST(Vae, KlTermKeepsLatentsBounded) {
  // With a strong beta, latent means must stay near the prior (small norm).
  Rng rng(78);
  const auto frames = two_family_frames(4);
  Vae::Config cfg;
  cfg.input_size = 16;
  cfg.latent_dim = 4;
  cfg.base_channels = 4;
  cfg.hidden = 32;
  Vae vae(cfg, rng);
  nn::Adam opt(vae.params(), 2e-3);
  const auto thumbs = make_thumbnails(frames, 16);
  Tensor batch({static_cast<int>(thumbs.size()), 3, 16, 16});
  for (std::size_t b = 0; b < thumbs.size(); ++b)
    std::copy(thumbs[b].data(), thumbs[b].data() + thumbs[b].size(),
              batch.data() + b * thumbs[b].size());
  for (int it = 0; it < 150; ++it) vae.train_step(batch, opt, rng, /*beta=*/1.0f);
  const Tensor mu = vae.encode_mu(batch);
  double norm2 = 0.0;
  for (std::size_t i = 0; i < mu.size(); ++i) norm2 += mu[i] * mu[i];
  EXPECT_LT(norm2 / static_cast<double>(mu.size()), 1.5);
}

TEST(Extractor, RawPixelFeaturesHaveExpectedDim) {
  const auto frames = two_family_frames(2);
  const cluster::Dataset feats = raw_pixel_features(frames, 8);
  ASSERT_EQ(feats.size(), 4u);
  EXPECT_EQ(feats[0].size(), 3u * 8u * 8u);
}

}  // namespace
}  // namespace dcsr::features

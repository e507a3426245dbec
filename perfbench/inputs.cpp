#include "inputs.hpp"

#include "core/client_pipeline.hpp"
#include "nn/serialize.hpp"
#include "stream/session.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace perfbench {

using namespace dcsr;

core::ServerConfig quickstart_server_config() {
  core::ServerConfig cfg;
  cfg.vae = {.input_size = 16, .latent_dim = 6, .base_channels = 4, .hidden = 48};
  cfg.vae_epochs = 15;
  cfg.micro = {.n_filters = 8, .n_resblocks = 2, .scale = 1};
  cfg.k_max = 6;
  cfg.training = {.iterations = 400, .patch_size = 24, .batch_size = 4, .lr = 3e-3};
  return cfg;
}

GrainedVideo::GrainedVideo(std::unique_ptr<SyntheticVideo> base, std::uint64_t seed)
    : base_(std::move(base)), grain_(3 * kTile * kTile) {
  Rng rng(seed);
  for (float& g : grain_) g = static_cast<float>(rng.uniform(-1.0, 1.0) / 255.0);
}

FrameRGB GrainedVideo::frame(int index) const {
  FrameRGB f = base_->frame(index);
  // The tile shifts from frame to frame, so the grain is not static.
  const int dx = (index * 29) % kTile, dy = (index * 47) % kTile;
  Plane* planes[] = {&f.r, &f.g, &f.b};
  for (int c = 0; c < 3; ++c) {
    const float* tile = grain_.data() + c * kTile * kTile;
    for (int y = 0; y < f.height(); ++y) {
      const float* row = tile + ((y + dy) % kTile) * kTile;
      for (int x = 0; x < f.width(); ++x) planes[c]->at(x, y) += row[(x + dx) % kTile];
    }
    planes[c]->clamp01();
  }
  return f;
}

std::unique_ptr<GrainedVideo> seeded_video(Genre genre, std::uint64_t base_seed,
                                           std::uint64_t seed, int width, int height,
                                           double duration_seconds, double fps) {
  return std::make_unique<GrainedVideo>(
      make_genre_video(genre, base_seed, width, height, duration_seconds, fps), seed);
}

ServerFingerprint fingerprint(int k, const std::vector<int>& labels,
                              const std::vector<std::unique_ptr<sr::Edsr>>& models) {
  ByteWriter out;
  for (const auto& model : models) nn::save_params(*model, out);
  return {k, labels, out.bytes()};
}

ServerFingerprint fingerprint(const core::ServerResult& result) {
  return fingerprint(result.k, result.labels, result.micro_models);
}

ViewerOutcome viewer_outcome(const VideoSource& video, const core::ServerResult& server,
                             double dcsr_psnr) {
  const stream::SessionResult session = stream::simulate_session(server.manifest());
  return {dcsr_psnr - core::play_low(server.encoded, video).mean_psnr,
          static_cast<double>(session.total_bytes()) / 1e3,
          static_cast<double>(session.model_bytes) / 1e3};
}

}  // namespace perfbench

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/server_pipeline.hpp"
#include "video/genres.hpp"
#include "video/source.hpp"

namespace perfbench {

/// The server configuration of examples/quickstart.cpp, which both media
/// workloads use.
dcsr::core::ServerConfig quickstart_server_config();

/// make_genre_video(genre, base_seed, ...) under a faint film grain drawn
/// from `seed`: every pixel moves by at most one 8-bit code value.
///
/// The grain gives every seed its own pixels, bits and trained models, while
/// the cuts, the segment count and the per-frame work stay those of the base
/// video, the cluster count does so on almost every seed, and the quality
/// moves by a few tenths of a dB at most.
/// Re-seeding the scene textures instead changes the cluster count, and the
/// training time and quality with it, on some seeds.
class GrainedVideo final : public dcsr::VideoSource {
 public:
  GrainedVideo(std::unique_ptr<dcsr::SyntheticVideo> base, std::uint64_t seed);

  dcsr::FrameRGB frame(int index) const override;
  int frame_count() const noexcept override { return base_->frame_count(); }
  int width() const noexcept override { return base_->width(); }
  int height() const noexcept override { return base_->height(); }
  double fps() const noexcept override { return base_->fps(); }

 private:
  static constexpr int kTile = 64;  // the grain repeats every kTile pixels
  std::unique_ptr<dcsr::SyntheticVideo> base_;
  std::vector<float> grain_;  // kTile x kTile per channel, in [-1/255, 1/255]
};

std::unique_ptr<GrainedVideo> seeded_video(dcsr::Genre genre, std::uint64_t base_seed,
                                           std::uint64_t seed, int width, int height,
                                           double duration_seconds, double fps);

/// A byte-for-byte fingerprint of a server result's decisions and models:
/// k, the labels and every micro model's serialised parameters.
struct ServerFingerprint {
  int k = 0;
  std::vector<int> labels;
  std::vector<std::uint8_t> model_bytes;

  bool operator==(const ServerFingerprint&) const = default;
};

ServerFingerprint fingerprint(int k, const std::vector<int>& labels,
                              const std::vector<std::unique_ptr<dcsr::sr::Edsr>>& models);
ServerFingerprint fingerprint(const dcsr::core::ServerResult& result);

/// What a viewer of one video gets: the PSNR gain of play_dcsr over
/// play_low, and the bytes of one streaming session of the manifest, all of
/// them and the micro models' share.
struct ViewerOutcome {
  double gain_db = 0.0;
  double wire_kb = 0.0;
  double model_kb = 0.0;
};

/// Plays the video's LOW stream and streams the manifest once. `dcsr_psnr`
/// is the mean PSNR of play_dcsr on the same video.
ViewerOutcome viewer_outcome(const dcsr::VideoSource& video,
                             const dcsr::core::ServerResult& server, double dcsr_psnr);

}  // namespace perfbench

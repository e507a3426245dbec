// End-to-end deployment round trip: pipeline -> CDN directory -> client.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/deployment.hpp"
#include "util/file.hpp"
#include "core/client_pipeline.hpp"
#include "stream/abr.hpp"
#include "stream/session.hpp"
#include "video/genres.hpp"

namespace dcsr::core {
namespace {

ServerConfig fast_config() {
  ServerConfig cfg;
  cfg.codec.crf = 51;
  cfg.codec.intra_period = 10;
  cfg.vae = {.input_size = 16, .latent_dim = 4, .base_channels = 4, .hidden = 32};
  cfg.vae_epochs = 5;
  cfg.micro = {.n_filters = 6, .n_resblocks = 1, .scale = 1};
  cfg.k_max = 3;
  cfg.training = {.iterations = 20, .patch_size = 16, .batch_size = 2, .lr = 3e-3};
  cfg.seed = 13;
  return cfg;
}

struct TempDir {
  std::string path;
  TempDir() {
    path = ::testing::TempDir() + "dcsr_deploy_" +
           std::to_string(::getpid()) + "_" + std::to_string(counter++);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  static int counter;
};
int TempDir::counter = 0;

TEST(Deployment, WriteLoadRoundTripFp32) {
  const auto video = make_genre_video(Genre::kMusicVideo, 66, 64, 48, 16.0, 15.0);
  const ServerResult server = run_server_pipeline(*video, fast_config());

  TempDir dir;
  write_deployment(server, dir.path, /*fp16=*/false);
  for (const char* f : {"video.dcv", "models.bin", "playlist.txt", "meta.txt"})
    EXPECT_TRUE(std::filesystem::exists(dir.path + "/" + f)) << f;

  const Deployment dep = load_deployment(dir.path);
  EXPECT_FALSE(dep.fp16);
  EXPECT_EQ(dep.micro, server.micro_models[0]->config());
  EXPECT_EQ(dep.labels, server.labels);
  EXPECT_EQ(dep.video.size_bytes(), server.encoded.size_bytes());
  ASSERT_EQ(dep.models.size(), static_cast<std::size_t>(server.k));

  // fp32 deployment plays back *identically* to the in-memory pipeline.
  const PlaybackResult a =
      play_dcsr(server.encoded, server.labels, server.micro_models, *video);
  const PlaybackResult b = play_dcsr(dep.video, dep.labels, dep.models, *video);
  ASSERT_EQ(a.frame_psnr.size(), b.frame_psnr.size());
  for (std::size_t i = 0; i < a.frame_psnr.size(); ++i)
    EXPECT_DOUBLE_EQ(a.frame_psnr[i], b.frame_psnr[i]);
}

TEST(Deployment, Fp16HalvesModelBytesAtNearIdenticalQuality) {
  const auto video = make_genre_video(Genre::kNews, 67, 64, 48, 12.0, 15.0);
  const ServerResult server = run_server_pipeline(*video, fast_config());

  TempDir dir32, dir16;
  write_deployment(server, dir32.path, false);
  write_deployment(server, dir16.path, true);
  const auto size32 = std::filesystem::file_size(dir32.path + "/models.bin");
  const auto size16 = std::filesystem::file_size(dir16.path + "/models.bin");
  EXPECT_LT(size16, size32 * 6 / 10);

  const Deployment dep = load_deployment(dir16.path);
  EXPECT_TRUE(dep.fp16);
  const PlaybackResult a =
      play_dcsr(server.encoded, server.labels, server.micro_models, *video);
  const PlaybackResult b = play_dcsr(dep.video, dep.labels, dep.models, *video);
  EXPECT_NEAR(a.mean_psnr, b.mean_psnr, 0.1);
}

TEST(Deployment, ManifestDrivesSessionIdentically) {
  const auto video = make_genre_video(Genre::kAnimation, 68, 64, 48, 12.0, 15.0);
  const ServerResult server = run_server_pipeline(*video, fast_config());
  TempDir dir;
  write_deployment(server, dir.path, true);
  const Deployment dep = load_deployment(dir.path);

  const auto session = stream::simulate_session(dep.manifest);
  EXPECT_EQ(session.video_bytes, dep.video.size_bytes());
  EXPECT_EQ(session.model_downloads, static_cast<int>(dep.models.size()));
}

TEST(Deployment, WritesIntoFreshNestedDirectory) {
  const auto video = make_genre_video(Genre::kSports, 70, 64, 48, 10.0, 15.0);
  const ServerResult server = run_server_pipeline(*video, fast_config());
  TempDir root;
  const std::string dir = root.path + "/cdn/news/v1";
  write_deployment(server, dir, true);
  const Deployment dep = load_deployment(dir);
  EXPECT_EQ(dep.labels, server.labels);
  EXPECT_EQ(dep.video.size_bytes(), server.encoded.size_bytes());
  EXPECT_EQ(dep.models.size(), static_cast<std::size_t>(server.k));
}

TEST(Deployment, DirectoryUnderRegularFileThrowsTyped) {
  TempDir root;
  const std::string file = root.path + "/not_a_dir";
  write_file(file, {'x'});
  EXPECT_THROW(write_deployment(ServerResult{}, file + "/deploy", true),
               std::filesystem::filesystem_error);
}

TEST(Deployment, MissingFilesFailLoudly) {
  TempDir dir;
  EXPECT_THROW(load_deployment(dir.path), std::runtime_error);
}

TEST(Deployment, CorruptMetaRejected) {
  const auto video = make_genre_video(Genre::kGaming, 69, 64, 48, 10.0, 15.0);
  const ServerResult server = run_server_pipeline(*video, fast_config());
  TempDir dir;
  write_deployment(server, dir.path, true);
  write_file(dir.path + "/meta.txt", {'b', 'a', 'd', '\n'});
  EXPECT_THROW(load_deployment(dir.path), std::invalid_argument);
}

}  // namespace
}  // namespace dcsr::core

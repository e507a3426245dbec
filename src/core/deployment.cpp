#include "core/deployment.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "codec/container.hpp"
#include "nn/serialize.hpp"
#include "stream/model_bundle.hpp"
#include "stream/playlist.hpp"
#include "util/file.hpp"

namespace dcsr::core {

DeploymentPaths deployment_paths(const std::string& dir) {
  return {dir + "/video.dcv", dir + "/models.bin", dir + "/playlist.txt",
          dir + "/meta.txt"};
}

void write_deployment(const ServerResult& server, const std::string& dir,
                      bool fp16) {
  std::filesystem::create_directories(dir);
  const DeploymentPaths paths = deployment_paths(dir);

  // Stream.
  ByteWriter video_bytes;
  codec::write_container(server.encoded, video_bytes);
  write_file(paths.video, video_bytes.bytes());

  // Models, bundled with per-entry CRCs.
  stream::ModelBundle bundle;
  for (int label = 0; label < server.k; ++label) {
    ByteWriter w;
    if (fp16) {
      nn::save_params_fp16(*server.micro_models[static_cast<std::size_t>(label)], w);
    } else {
      nn::save_params(*server.micro_models[static_cast<std::size_t>(label)], w);
    }
    bundle.add(label, w.bytes());
  }
  ByteWriter bundle_bytes;
  bundle.serialize(bundle_bytes);
  write_file(paths.models, bundle_bytes.bytes());

  // Playlist with the *actual* serialised model sizes.
  std::vector<std::uint64_t> model_sizes;
  for (int label = 0; label < server.k; ++label)
    model_sizes.push_back(bundle.payload(label).size());
  const stream::Manifest manifest =
      stream::make_manifest(server.encoded, server.labels, std::move(model_sizes));
  const std::string playlist = stream::write_playlist(manifest);
  write_file(paths.playlist,
             std::vector<std::uint8_t>(playlist.begin(), playlist.end()));

  // Architecture metadata.
  const auto micro = server.micro_models.empty()
                         ? sr::EdsrConfig{}
                         : server.micro_models[0]->config();
  char meta[128];
  std::snprintf(meta, sizeof meta, "edsr %d %d %d %s\n", micro.n_filters,
                micro.n_resblocks, micro.scale, fp16 ? "fp16" : "fp32");
  const std::string meta_s(meta);
  write_file(paths.meta, std::vector<std::uint8_t>(meta_s.begin(), meta_s.end()));
}

Deployment load_deployment(const std::string& dir) {
  const DeploymentPaths paths = deployment_paths(dir);
  Deployment dep;

  // Metadata first: it tells us how to parse the models.
  const auto meta_bytes = read_file(paths.meta);
  const std::string meta(meta_bytes.begin(), meta_bytes.end());
  char precision[16] = {0};
  if (std::sscanf(meta.c_str(), "edsr %d %d %d %15s", &dep.micro.n_filters,
                  &dep.micro.n_resblocks, &dep.micro.scale, precision) != 4)
    throw std::invalid_argument("load_deployment: malformed meta.txt");
  dep.fp16 = std::string(precision) == "fp16";

  // Stream.
  ByteReader video_reader(read_file(paths.video));
  dep.video = codec::read_container(video_reader);

  // Manifest.
  const auto playlist_bytes = read_file(paths.playlist);
  dep.manifest = stream::parse_playlist(
      std::string(playlist_bytes.begin(), playlist_bytes.end()));
  for (const auto& seg : dep.manifest.segments) dep.labels.push_back(seg.model_label);
  if (dep.labels.size() != dep.video.segments.size())
    throw std::invalid_argument("load_deployment: playlist/stream segment mismatch");

  // Models.
  ByteReader bundle_reader(read_file(paths.models));
  const stream::ModelBundle bundle = stream::ModelBundle::deserialize(bundle_reader);
  Rng rng(0);
  for (std::size_t label = 0; label < dep.manifest.model_bytes.size(); ++label) {
    auto model = std::make_unique<sr::Edsr>(dep.micro, rng);
    ByteReader params(bundle.payload(static_cast<int>(label)));
    if (dep.fp16) {
      nn::load_params_fp16(*model, params);
    } else {
      nn::load_params(*model, params);
    }
    dep.models.push_back(std::move(model));
  }
  return dep;
}

}  // namespace dcsr::core

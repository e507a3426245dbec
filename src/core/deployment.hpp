#pragma once

#include <string>

#include "core/server_pipeline.hpp"

namespace dcsr::core {

/// On-disk deployment of one video — what the server pipeline publishes to a
/// CDN directory and a client loads back:
///
///   video.dcv      CRC-protected encoded stream (codec/container)
///   models.bin     ModelBundle of the micro models, fp16 by default
///   playlist.txt   text manifest (segments, labels, byte sizes)
///   meta.txt       micro-model architecture + precision, one line
///
/// Everything round-trips: load_deployment() reconstructs models and the
/// manifest such that client playback is identical (bit-exact in fp32 mode,
/// within fp16 rounding otherwise).
struct DeploymentPaths {
  std::string video, models, playlist, meta;
};

DeploymentPaths deployment_paths(const std::string& dir);

/// Writes all four artefacts into `dir`, creating it and any missing parents
/// first; throws std::filesystem::filesystem_error if that fails (e.g. a
/// component of `dir` is a regular file). `fp16` halves the model payloads.
void write_deployment(const ServerResult& server, const std::string& dir,
                      bool fp16 = true);

/// A loaded deployment, ready for play_dcsr / simulate_session.
struct Deployment {
  codec::EncodedVideo video;
  stream::Manifest manifest;
  std::vector<int> labels;  // per segment, from the manifest
  std::vector<std::unique_ptr<sr::Edsr>> models;
  sr::EdsrConfig micro;
  bool fp16 = false;
};

Deployment load_deployment(const std::string& dir);

}  // namespace dcsr::core

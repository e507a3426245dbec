#pragma once

#include <memory>
#include <vector>

#include "codec/encoder.hpp"
#include "features/vae.hpp"
#include "split/segmenter.hpp"
#include "sr/model_zoo.hpp"
#include "sr/trainer.hpp"
#include "stream/manifest.hpp"
#include "video/source.hpp"

namespace dcsr::core {

/// Everything the server-side dcSR pipeline is configured by.
struct ServerConfig {
  /// Encoding of the low-quality stream the client will receive. The
  /// paper's evaluation uses CRF 51 ("worst quality"). intra_period > 0
  /// inserts refresh I frames inside segments: each one re-applies the
  /// micro model in the client loop, bounding the quality drift of long
  /// P-chains ("there can be multiple I frames in a segment in a practical
  /// setting in order to avoid the quality drift", §4).
  codec::CodecConfig codec{.crf = 51, .intra_period = 12};

  /// Shot-based variable-length split (§3.1.1).
  split::SegmenterConfig segmenter;

  /// VAE used for I-frame feature extraction (§3.1.1 / Fig. 3).
  features::Vae::Config vae;
  int vae_epochs = 30;

  /// Architecture of each micro model (§3.1.3). The minimum-working-model
  /// search of Appendix A.1 can produce this; experiments may also pin it
  /// to dcSR-1/2/3.
  sr::EdsrConfig micro = sr::dcsr1_config();

  /// The big single-model baseline that bounds total model bytes (Eq. 3).
  sr::EdsrConfig big = sr::big_model_config();

  /// Hard cap on the cluster count sweep, on top of the Eq. 3 bound.
  int k_max = 16;

  /// Per-cluster micro-model training budget.
  sr::TrainOptions training{.iterations = 150, .patch_size = 24, .batch_size = 4,
                            .lr = 2e-3};

  std::uint64_t seed = 1;
};

/// One segment's I-frame training material.
struct SegmentIFrames {
  int segment_index = 0;
  std::vector<sr::TrainSample> pairs;  // decoded-lo / original-hi, one per I frame
};

/// Output of the server pipeline: everything the CDN stores for one video.
struct ServerResult {
  std::vector<codec::SegmentPlan> segments;
  codec::EncodedVideo encoded;

  /// Per-segment cluster label == micro-model label.
  std::vector<int> labels;
  int k = 0;
  std::vector<double> silhouette_curve;  // silhouette at k = 2 .. k_max

  std::unique_ptr<features::Vae> vae;
  std::vector<std::unique_ptr<sr::Edsr>> micro_models;  // one per cluster
  std::uint64_t micro_model_bytes = 0;                  // serialised size each

  /// Total training compute spent on the micro models (FLOPs), for the
  /// training-cost comparison in §4.
  std::uint64_t train_flops = 0;

  stream::Manifest manifest() const;
};

/// Runs the full server-side dcSR pipeline of Fig. 2: split -> encode ->
/// extract I-frame features with the VAE -> global K-means with the
/// silhouette criterion (Eq. 2) bounded by model size (Eq. 3) -> train one
/// micro EDSR per cluster.
ServerResult run_server_pipeline(const VideoSource& video, const ServerConfig& cfg);

/// Extracts each segment's I-frame (lo, hi) pairs: `lo` is the I frame as
/// the client's codec::Decoder holds it in its DPB (Decoder::decode_intra),
/// `hi` the pristine source frame.
/// Shared by the pipeline, the baselines, and several benches.
std::vector<SegmentIFrames> collect_iframe_pairs(const VideoSource& video,
                                                 const codec::EncodedVideo& encoded,
                                                 const std::vector<codec::SegmentPlan>& segments);

}  // namespace dcsr::core

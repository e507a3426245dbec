#include "core/server_pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "cluster/global_kmeans.hpp"
#include "cluster/silhouette.hpp"
#include "codec/decoder.hpp"
#include "features/extractor.hpp"
#include "image/convert.hpp"
#include "nn/serialize.hpp"
#include "sr/min_model.hpp"
#include "util/stats.hpp"

namespace dcsr::core {

stream::Manifest ServerResult::manifest() const {
  std::vector<std::uint64_t> sizes(static_cast<std::size_t>(k), micro_model_bytes);
  return stream::make_manifest(encoded, labels, std::move(sizes));
}

std::vector<SegmentIFrames> collect_iframe_pairs(
    const VideoSource& video, const codec::EncodedVideo& encoded,
    const std::vector<codec::SegmentPlan>& segments) {
  if (encoded.segments.size() != segments.size())
    throw std::invalid_argument("collect_iframe_pairs: plan/stream mismatch");

  // Training inputs must be exactly what the client's DPB will hold, so
  // they come from the client's decoder.
  codec::Decoder decoder(encoded);
  std::vector<SegmentIFrames> out;
  out.reserve(segments.size());
  for (std::size_t s = 0; s < segments.size(); ++s) {
    SegmentIFrames entry;
    entry.segment_index = static_cast<int>(s);
    for (const auto& ef : encoded.segments[s].frames) {
      if (ef.type != codec::FrameType::kI) continue;
      sr::TrainSample pair;
      pair.lo = yuv420_to_rgb(decoder.decode_intra(encoded.segments[s], ef));
      pair.hi = video.frame(segments[s].first_frame + ef.display_index);
      entry.pairs.push_back(std::move(pair));
    }
    if (entry.pairs.empty())
      throw std::logic_error("collect_iframe_pairs: segment without I frame");
    out.push_back(std::move(entry));
  }
  return out;
}

ServerResult run_server_pipeline(const VideoSource& video, const ServerConfig& cfg) {
  Rng rng(cfg.seed);
  ServerResult result;

  // 1. Content-aware variable-length split (Fig. 2, "Video Split").
  result.segments = split::variable_segments(video, cfg.segmenter);

  // 2. Encode at the streaming CRF; I frames land at segment starts.
  result.encoded = codec::Encoder(cfg.codec).encode(video, result.segments);

  // 3. I-frame training pairs: what the client's decoder will actually hold
  //    in its DPB (lo) versus the pristine source (hi).
  const auto iframes = collect_iframe_pairs(video, result.encoded, result.segments);

  // 4. Feature extraction: VAE over the original I-frame thumbnails; each
  //    segment is represented by its first I frame (§3.1.1).
  std::vector<FrameRGB> representatives;
  representatives.reserve(iframes.size());
  for (const auto& seg : iframes) representatives.push_back(seg.pairs.front().hi);

  Rng vae_rng = rng.fork();
  result.vae = features::train_vae(
      features::make_thumbnails(representatives, cfg.vae.input_size), cfg.vae,
      cfg.vae_epochs, vae_rng);
  const cluster::Dataset feats =
      features::extract_features(*result.vae, representatives);

  // 5. Cluster count: silhouette-optimal K (Eq. 2) subject to the model-size
  //    bound K <= |M_big| / |M_min| (Eq. 3) and the configured cap.
  const int size_bound = sr::max_micro_models(cfg.big, cfg.micro);
  const int k_max =
      std::min({cfg.k_max, size_bound, static_cast<int>(feats.size()) - 1});
  if (k_max < 2) {
    // Degenerate video (one or two segments): a single micro model covers it.
    result.k = 1;
    result.labels.assign(feats.size(), 0);
  } else {
    result.silhouette_curve = cluster::silhouette_sweep(feats, k_max);
    if (result.silhouette_curve.empty()) {
      // A sweep that produced no candidates (argmax would throw) degrades to
      // the same single-model fallback as the k_max < 2 branch.
      result.k = 1;
      result.labels.assign(feats.size(), 0);
    } else {
      const int best_k = 2 + static_cast<int>(argmax(result.silhouette_curve));

      // 6. Final clustering at K* with global K-means (§3.1.2).
      const cluster::Clustering clustering =
          cluster::global_kmeans(feats, best_k);
      result.k = best_k;
      result.labels = clustering.assignment;
    }
  }

  // 7. One micro model per cluster, trained on that cluster's I frames only
  //    (§3.1.3). Each cluster's Rng is forked from the parent stream in
  //    cluster order and builds the cluster's model before training draws
  //    its patches; train_sr_models then trains all clusters in lockstep,
  //    so every model's weights are bit-identical at any thread count.
  std::vector<std::vector<sr::TrainSample>> data(static_cast<std::size_t>(result.k));
  std::vector<Rng> rngs;
  std::vector<sr::TrainJob> jobs;
  rngs.reserve(data.size());
  result.micro_models.reserve(data.size());
  for (int c = 0; c < result.k; ++c) {
    auto& cluster = data[static_cast<std::size_t>(c)];
    for (std::size_t s = 0; s < iframes.size(); ++s)
      if (result.labels[s] == c)
        for (const auto& p : iframes[s].pairs) cluster.push_back(p);
    if (cluster.empty())
      throw std::logic_error("run_server_pipeline: empty cluster");
    rngs.push_back(rng.fork());
    result.micro_models.push_back(std::make_unique<sr::Edsr>(cfg.micro, rngs.back()));
    jobs.push_back({*result.micro_models.back(), cluster, rngs.back()});
  }
  for (const sr::TrainStats& stats : sr::train_sr_models(jobs, cfg.training))
    result.train_flops += stats.train_flops;
  result.micro_model_bytes = sr::edsr_model_bytes(cfg.micro);
  return result;
}

}  // namespace dcsr::core

// server_prepare: core::run_server_pipeline on the quickstart video, run back
// to back. Encoding and per-cluster training dominate it; the client and
// stream layers sit idle.

#include <algorithm>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "cluster/global_kmeans.hpp"
#include "cluster/silhouette.hpp"
#include "core/dcsr.hpp"
#include "features/extractor.hpp"
#include "inputs.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace dcsr;

constexpr std::size_t kSetups = 3;
constexpr std::uint64_t kQuickstartSeed = 5;

// run_server_pipeline composed stage by stage, with a span around each call
// into a layer. It follows src/core/server_pipeline.cpp call for call and
// forks its Rng in the same order, so its fingerprint must equal the
// untraced call's.
ServerFingerprint traced_prepare(const VideoSource& video,
                                 const core::ServerConfig& cfg, Tracer& tr,
                                 std::uint64_t& train_flops) {
  Tracer::Scope whole(tr, "core.prepare");
  Rng rng(cfg.seed);

  std::vector<codec::SegmentPlan> segments;
  {
    Tracer::Scope span(tr, "split.segment");
    segments = split::variable_segments(video, cfg.segmenter);
  }
  codec::EncodedVideo encoded;
  {
    Tracer::Scope span(tr, "codec.encode");
    encoded = codec::Encoder(cfg.codec).encode(video, segments);
  }
  std::vector<core::SegmentIFrames> iframes;
  {
    Tracer::Scope span(tr, "core.iframe_pairs");
    iframes = core::collect_iframe_pairs(video, encoded, segments);
  }

  std::vector<FrameRGB> representatives;
  for (const auto& seg : iframes) representatives.push_back(seg.pairs.front().hi);
  Rng vae_rng = rng.fork();
  std::unique_ptr<features::Vae> vae;
  {
    Tracer::Scope span(tr, "features.vae_train");
    vae = features::train_vae(
        features::make_thumbnails(representatives, cfg.vae.input_size), cfg.vae,
        cfg.vae_epochs, vae_rng);
  }
  cluster::Dataset feats;
  {
    Tracer::Scope span(tr, "features.extract");
    feats = features::extract_features(*vae, representatives);
  }

  int k = 1;
  std::vector<int> labels(feats.size(), 0);
  const int k_max = std::min({cfg.k_max, sr::max_micro_models(cfg.big, cfg.micro),
                              static_cast<int>(feats.size()) - 1});
  if (k_max >= 2) {
    std::vector<double> curve;
    {
      Tracer::Scope span(tr, "cluster.silhouette");
      curve = cluster::silhouette_sweep(feats, k_max);
    }
    if (!curve.empty()) {
      k = 2 + static_cast<int>(argmax(curve));
      Tracer::Scope span(tr, "cluster.kmeans");
      labels = cluster::global_kmeans(feats, k).assignment;
    }
  }

  struct ClusterJob {
    std::vector<sr::TrainSample> data;
    Rng rng{0};
    std::unique_ptr<sr::Edsr> model;
    std::uint64_t flops = 0;
    double start_s = 0.0, end_s = 0.0;
  };
  std::vector<ClusterJob> jobs(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) {
    ClusterJob& job = jobs[static_cast<std::size_t>(c)];
    for (std::size_t s = 0; s < iframes.size(); ++s)
      if (labels[s] == c)
        for (const auto& p : iframes[s].pairs) job.data.push_back(p);
    if (job.data.empty()) throw std::logic_error("traced_prepare: empty cluster");
    job.rng = rng.fork();
  }
  {
    Tracer::Scope phase(tr, "sr.train_phase");
    parallel_for_writes(
        0, k, 1,
        [&](std::int64_t lo, std::int64_t hi) {
          return span_of(jobs.data() + lo, static_cast<std::size_t>(hi - lo));
        },
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t c = lo; c < hi; ++c) {
            ClusterJob& job = jobs[static_cast<std::size_t>(c)];
            job.start_s = now_s();
            job.model = std::make_unique<sr::Edsr>(cfg.micro, job.rng);
            job.flops =
                sr::train_sr_model(*job.model, job.data, cfg.training, job.rng)
                    .train_flops;
            job.end_s = now_s();
          }
        },
        "perfbench/server_prepare.cpp:traced_prepare(train clusters)");
    for (int c = 0; c < k; ++c) {
      const ClusterJob& job = jobs[static_cast<std::size_t>(c)];
      tr.record("sr.train", job.start_s, job.end_s, c + 1);
    }
  }

  std::vector<std::unique_ptr<sr::Edsr>> models;
  train_flops = 0;
  for (auto& job : jobs) {
    train_flops += job.flops;
    models.push_back(std::move(job.model));
  }
  return fingerprint(k, labels, models);
}

// Per-layer metrics of the `reps` traced prepares recorded in `tr`. The
// single-thread pass (suffix "_t1") reports the stage spans only.
void report_stages(const Tracer& tr, int reps, int frames, std::uint64_t train_flops,
                   const std::string& suffix, Report& report) {
  if (reps == 0) return;
  const auto per_rep = [&](const char* name) { return tr.total(name) / reps; };
  const auto put = [&](const std::string& name, double value) {
    report.set(name + suffix, value);
  };
  put("split.segment_s", per_rep("split.segment"));
  put("codec.encode_s", per_rep("codec.encode"));
  put("core.iframe_pairs_s", per_rep("core.iframe_pairs"));
  put("features.vae_train_s", per_rep("features.vae_train"));
  put("features.extract_s", per_rep("features.extract"));
  put("cluster.silhouette_s", per_rep("cluster.silhouette"));
  put("cluster.kmeans_s", per_rep("cluster.kmeans"));
  put("sr.train_phase_s", per_rep("sr.train_phase"));
  put("core.prepare_traced_s", per_rep("core.prepare"));
  put("core.unattributed_s", tr.self_total("core.prepare") / reps);

  // Every traced prepare trains the same k clusters (the fingerprint check
  // holds k fixed), recorded in cluster order.
  const std::vector<double> train = tr.durations("sr.train");
  const std::size_t k = train.size() / static_cast<std::size_t>(reps);
  if (k == 0) return;
  double max_sum = 0.0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(reps); ++r)
    max_sum += *std::max_element(train.begin() + static_cast<std::ptrdiff_t>(r * k),
                                 train.begin() + static_cast<std::ptrdiff_t>((r + 1) * k));
  const double train_max = max_sum / reps;
  put("sr.train_s_max", train_max);
  if (!suffix.empty()) return;

  const double train_sum = per_rep("sr.train");
  report.set("codec.encode_fps", frames / per_rep("codec.encode"));
  report.set("sr.clusters", static_cast<double>(k));
  report.set("sr.train_s_sum", train_sum);
  report.set("sr.train_balance", train_sum / (static_cast<double>(k) * train_max));
  report.set("sr.train_gflop_per_s",
             static_cast<double>(train_flops) / per_rep("sr.train_phase") / 1e9);
}

}  // namespace

void run_server_prepare(const Options& opts, Report& report) {
  const core::ServerConfig cfg = quickstart_server_config();
  const auto draw = [&](std::size_t i) {
    return seeded_video(Genre::kNews, kQuickstartSeed, opts.seed * 1000 + i, 96, 64,
                        60.0, 10.0);
  };

  // What a viewer gets from every video prepared, measured off the clock.
  std::vector<double> gain_db, wire_kb, model_kb;
  std::string clusters;  // k of every video prepared, in order
  const auto view = [&](const VideoSource& video, const core::ServerResult& server) {
    const double dcsr_psnr =
        core::play_dcsr(server.encoded, server.labels, server.micro_models, video)
            .mean_psnr;
    const ViewerOutcome viewer = viewer_outcome(video, server, dcsr_psnr);
    report.outcomes.run([&] { return viewer.gain_db > 0.0; });
    gain_db.push_back(viewer.gain_db);
    clusters += " " + std::to_string(server.k);
    wire_kb.push_back(viewer.wire_kb);
    model_kb.push_back(viewer.model_kb);
  };

  // Set-up, repeated: draw a video and prepare it once, which warms the
  // process and gives the result a later prepare of it must reproduce.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<GrainedVideo>> videos;
  std::vector<ServerFingerprint> fingerprints;
  for (std::size_t i = 0; i < (opts.trace ? 1 : kSetups); ++i) {
    const double t0 = now_s();
    videos.push_back(draw(i));
    const core::ServerResult server = core::run_server_pipeline(*videos[i], cfg);
    setup_s.push_back(now_s() - t0);
    fingerprints.push_back(fingerprint(server));
    if (!opts.trace) view(*videos[i], server);
  }
  const int frames = videos[0]->frame_count();

  // One untraced prepare of set-up video i, checked against its set-up result.
  std::vector<double> untraced_s;
  const auto untraced = [&](std::size_t i) {
    report.outcomes.run([&] {
      const double t0 = now_s();
      const core::ServerResult result = core::run_server_pipeline(*videos[i], cfg);
      untraced_s.push_back(now_s() - t0);
      return fingerprint(result) == fingerprints[i];
    });
  };

  const double start = now_s();
  if (!opts.trace) {
    // Videos back to back: the set-up videos again, then new ones.
    for (std::size_t i = 0; i == 0 || now_s() - start < opts.seconds; ++i) {
      if (i < videos.size()) {
        untraced(i);
        continue;
      }
      const std::unique_ptr<GrainedVideo> video = draw(i);
      core::ServerResult server;
      report.outcomes.run([&] {
        const double t0 = now_s();
        server = core::run_server_pipeline(*video, cfg);
        untraced_s.push_back(now_s() - t0);
        return true;
      });
      if (server.k > 0) view(*video, server);
    }

    const double prepare_s = median(untraced_s);
    report.set("setup_s", median(setup_s));
    report.note_samples("set-up", setup_s);
    report.note_samples("prepare", untraced_s);
    report.set("op_s", prepare_s);
    report.set("items_per_s", frames / prepare_s);
    report.set("quality_db", median(gain_db));
    report.set("wire_kb_per_session", median(wire_kb));
    report.note("prepare_s = %.4f s/video (median of %zu)", prepare_s, untraced_s.size());
    report.note("psnr_gain_db = %.4f dB (median over %zu videos)", median(gain_db),
                gain_db.size());
    report.note("k per video:%s", clusters.c_str());
    report.note("stream_kb = %.2f KB (models %.2f)", median(wire_kb), median(model_kb));
    return;
  }

  // Traced: alternate untraced and traced prepares of the first video so
  // both see the same machine state, then one traced prepare at one thread.
  std::vector<double> traced_s;
  std::uint64_t misses = 0, train_flops = 0;
  do {
    untraced(0);
    report.outcomes.run([&] {
      const std::uint64_t misses0 = workspace_misses();
      const double t0 = now_s();
      const ServerFingerprint fp = traced_prepare(*videos[0], cfg, report.tracer, train_flops);
      traced_s.push_back(now_s() - t0);
      misses += workspace_misses() - misses0;
      return fp == fingerprints[0];
    });
  } while ((now_s() - start < opts.seconds || traced_s.size() < 2) &&
           report.outcomes.failed() == 0);
  {
    PoolThreads single(1, opts.threads);
    std::uint64_t flops_t1 = 0;
    report.outcomes.run([&] {
      return traced_prepare(*videos[0], cfg, report.tracer_t1, flops_t1) == fingerprints[0];
    });
  }

  const int reps = static_cast<int>(report.tracer.count("core.prepare"));
  if (reps == 0 || untraced_s.empty() || traced_s.empty()) return;
  report_stages(report.tracer, reps, frames, train_flops, "", report);
  report_stages(report.tracer_t1, 1, frames, train_flops, "_t1", report);
  report.set("tensor.ws_misses", static_cast<double>(misses) / reps);
  report.set("trace.overhead_s", median(traced_s) - median(untraced_s));
}

}  // namespace perfbench

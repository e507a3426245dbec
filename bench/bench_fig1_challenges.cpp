// Figure 1: "Challenges of realizing SR in practice".
//
//  (a) Inference rate of a big (NAS-like) model vs video resolution — below
//      15 FPS everywhere, far below the 30 FPS playback bar.
//  (b) Model size vs resolution — per-resolution big models grow with the
//      target resolution.
//  (c) Quality-variance CDF — one big model trained on a whole (long) video
//      cannot serve all of it uniformly: per-frame PSNR spreads over several
//      dB (the paper observes ~5 dB on a 12-minute video).

#include <cstdio>

#include "bench/common.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace dcsr;
using namespace dcsr::bench;

namespace {

// Per-resolution big-model configs: higher-resolution content warrants wider
// and deeper models (this mirrors how NAS sizes its networks per quality).
sr::EdsrConfig big_for(const device::Resolution& res) {
  if (res.name == "720p") return {.n_filters = 32, .n_resblocks = 12, .scale = 1};
  if (res.name == "1080p") return {.n_filters = 48, .n_resblocks = 16, .scale = 1};
  return {.n_filters = 64, .n_resblocks = 20, .scale = 1};
}

}  // namespace

int main() {
  // ---- (a) inference rate and (b) model size vs resolution ---------------
  std::printf("Fig. 1(a,b): big-model inference rate and size vs resolution\n");
  std::printf("(device model: desktop RTX 2070 profile)\n\n");
  const device::DeviceProfile desktop = device::desktop_rtx2070();
  Table ab({"resolution", "model", "inference FPS", "model size (MB)"});
  for (const device::Resolution& res :
       {device::res_720p(), device::res_1080p(), device::res_4k()}) {
    const sr::EdsrConfig cfg = big_for(res);
    const double fps = 1.0 / device::inference_seconds(desktop, cfg, res);
    ab.add_row({res.name, sr::config_name(cfg), fmt(fps, 2),
                fmt(sr::model_size_mb(cfg), 2)});
  }
  std::printf("%s", ab.to_string().c_str());
  std::printf("(paper: <15 FPS at every resolution; size grows with resolution)\n\n");

  // ---- (c) per-frame quality variance of one whole-video model -----------
  std::printf("Fig. 1(c): PSNR CDF of a single big model over a long video\n\n");
  const auto video =
      make_genre_video(Genre::kMusicVideo, 31, kWidth, kHeight, 90.0, kFps);
  const auto segments = split::variable_segments(*video);
  codec::CodecConfig ccfg;
  ccfg.crf = 51;
  ccfg.intra_period = 10;
  const auto encoded = codec::Encoder(ccfg).encode(*video, segments);

  core::BaselineConfig bcfg = quality_baseline_config();
  bcfg.training_frames = 28;
  const core::BaselineResult big = core::train_big_model(*video, encoded, bcfg);

  // Per-frame PSNR of model(decoded) vs original on a frame sample.
  const auto pairs = core::collect_whole_video_pairs(*video, encoded, 40);
  std::vector<double> psnrs;
  FrameRGB enhanced;
  for (const auto& p : pairs) {
    big.model->enhance_into(p.lo, enhanced);
    psnrs.push_back(psnr(enhanced, p.hi));
  }

  Table cdf({"PSNR (dB)", "CDF"});
  const double lo = min_of(psnrs), hi = max_of(psnrs);
  std::vector<double> probes;
  for (int i = 0; i <= 10; ++i) probes.push_back(lo + (hi - lo) * i / 10.0);
  const auto cdf_vals = empirical_cdf(psnrs, probes);
  for (std::size_t i = 0; i < probes.size(); ++i)
    cdf.add_row({fmt(probes[i], 2), fmt(cdf_vals[i], 2)});
  std::printf("%s", cdf.to_string().c_str());
  std::printf("\nper-frame PSNR spread: %.2f dB (p5 %.2f .. p95 %.2f), stddev %.2f\n",
              hi - lo, percentile(psnrs, 5), percentile(psnrs, 95), stddev(psnrs));
  std::printf("(paper: ~5 dB spread when one model serves a whole 12-min video)\n");
  return 0;
}

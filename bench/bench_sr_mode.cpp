// Extension: true super-resolution streaming (NAS's actual design) vs dcSR's
// same-resolution quality enhancement, at matched byte budgets.
//
// Two ways to spend a constrained bitrate on the same content:
//   A. dcSR mode  — full resolution, crushed quantiser (CRF 51), micro
//      models restore quality in-loop at the decode resolution (scale 1).
//   B. SR mode    — half resolution at a gentler quantiser chosen by rate
//      control to match A's bytes, a scale-2 EDSR upscales out-of-loop.
//
// The synthetic generator renders the *same scenes* at any resolution, so
// the half-res stream really is the same content — the comparison the
// paper's authors could not run without re-encoding their sources.

#include <algorithm>
#include <cstdio>

#include "bench/common.hpp"
#include "codec/rate_control.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "image/resize.hpp"
#include "util/table.hpp"

using namespace dcsr;
using namespace dcsr::bench;

int main() {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  const Genre genre = Genre::kNews;
  const std::uint64_t seed = 77;
  const double seconds = 30.0;

  const auto full = make_genre_video(genre, seed, kWidth, kHeight, seconds, kFps);
  const auto half =
      make_genre_video(genre, seed, kWidth / 2, kHeight / 2, seconds, kFps);

  // ---- A: dcSR mode ---------------------------------------------------------
  core::ServerConfig scfg = quality_server_config();
  scfg.training.iterations = 500;
  const core::ServerResult server = core::run_server_pipeline(*full, scfg);
  const auto dcsr_quality = core::play_dcsr(server.encoded, server.labels,
                                            server.micro_models, *full);
  const double dcsr_bytes = static_cast<double>(server.encoded.size_bytes());
  std::printf("A: dcSR mode — %.1f KB at CRF 51, %d micro models\n",
              dcsr_bytes / 1e3, server.k);

  // ---- B: SR mode -----------------------------------------------------------
  // Rate-control the half-res stream to the same byte budget.
  const auto half_segments = split::variable_segments(*half);
  codec::CodecConfig base;
  base.intra_period = 10;
  const double target_bps =
      dcsr_bytes * 8.0 / half->duration_seconds();
  const auto rc =
      codec::encode_with_target_bitrate(*half, half_segments, base, target_bps);
  std::printf("B: SR mode  — %.1f KB at CRF %d..%d (half resolution)\n",
              rc.video.size_bytes() / 1e3,
              *std::min_element(rc.segment_crf.begin(), rc.segment_crf.end()),
              *std::max_element(rc.segment_crf.begin(), rc.segment_crf.end()));

  // Train a scale-2 model on (decoded half-res, original full-res) pairs.
  const auto half_pairs = core::collect_whole_video_pairs(*half, rc.video, 16);
  std::vector<sr::TrainSample> sr_pairs;
  for (std::size_t i = 0; i < half_pairs.size(); ++i) {
    sr::TrainSample p;
    p.lo = half_pairs[i].lo;
    // Ground truth: the full-resolution render of the same frame. The decoded
    // half-res stream and the full video share frame indices (same fps).
    const int stride = std::max(1, rc.video.frame_count() / 16);
    p.hi = full->frame(static_cast<int>(i) * stride);
    sr_pairs.push_back(std::move(p));
  }
  Rng rng(5);
  sr::Edsr up_model({.n_filters = 16, .n_resblocks = 4, .scale = 2}, rng);
  sr::TrainOptions topts;
  topts.iterations = 800;
  topts.patch_size = 16;  // lo-res patch; hi patch is 32
  topts.batch_size = 4;
  topts.lr = 3e-3;
  sr::train_sr_model(up_model, sr_pairs, topts, rng);

  // Evaluate: decode half stream, upscale every sampled frame, compare.
  codec::Decoder dec(rc.video);
  const auto half_frames = dec.decode_video(rc.video);
  double sr_psnr = 0.0, bicubic_psnr = 0.0;
  FrameRGB upscaled;
  int n = 0;
  for (int i = 0; i < full->frame_count(); i += 7) {
    const FrameRGB lo = yuv420_to_rgb(half_frames[static_cast<std::size_t>(i)]);
    const FrameRGB hi = full->frame(i);
    up_model.enhance_into(lo, upscaled);
    sr_psnr += psnr(upscaled, hi);
    bicubic_psnr += psnr(resize(lo, kWidth, kHeight), hi);
    ++n;
  }
  sr_psnr /= n;
  bicubic_psnr /= n;

  std::printf("\nsame-bytes comparison (%d frames sampled):\n\n", n);
  Table t({"pipeline", "KB", "PSNR (dB)"});
  t.add_row({"A  dcSR: full-res CRF51 + in-loop micro models",
             fmt(dcsr_bytes / 1e3, 1), fmt(dcsr_quality.mean_psnr, 2)});
  t.add_row({"B  SR: half-res + x2 EDSR upscale", fmt(rc.video.size_bytes() / 1e3, 1),
             fmt(sr_psnr, 2)});
  t.add_row({"B' half-res + bicubic upscale (no model)",
             fmt(rc.video.size_bytes() / 1e3, 1), fmt(bicubic_psnr, 2)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("(the x2 model must beat bicubic; whether A or B wins depends on\n"
              " content — detail-rich frames favour spending bits on resolution)\n");
  return 0;
}

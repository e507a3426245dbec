// Figure 11 (Appendix A.1): "Training Loss over Different Training Data
// Size" — a micro model with the paper's 8 filters / 8 ResBlocks, started
// from identical initial weights, trained on growing datasets. Training
// loss rises with dataset size: the less data a micro model must memorise,
// the better it fits — the quantitative basis of the data-centric argument.
//
// (Training and test data are identical in dcSR, so training loss *is* the
// quality the model will deliver.)

#include <cstdio>

#include "bench/common.hpp"
#include "codec/frame_coding.hpp"
#include "codec/quant.hpp"
#include "image/convert.hpp"
#include "nn/serialize.hpp"
#include "util/table.hpp"

using namespace dcsr;
using namespace dcsr::bench;

int main() {
  // A pool of 150 distinct degraded/original frame pairs drawn from a long
  // documentary-style video (the most visually diverse genre), degraded by
  // the sliced intra coder the encoder writes.
  const auto video =
      make_genre_video(Genre::kDocumentary, 71, kWidth, kHeight, 150.0, kFps);
  const codec::Quantizer q(51);
  std::vector<sr::TrainSample> pool;
  for (int i = 0; i < 150; ++i) {
    sr::TrainSample p;
    p.hi = video->frame(i * video->frame_count() / 150);
    codec::EncodedFrame ef;
    const FrameYUV recon = codec::encode_frame(
        codec::FrameType::kI, rgb_to_yuv420(p.hi), {}, q, 0, 1, ef);
    p.lo = yuv420_to_rgb(recon);
    pool.push_back(std::move(p));
  }

  // Reference model: every run copies these exact initial weights, isolating
  // the effect of data size from initialisation (as the paper does).
  const sr::EdsrConfig cfg{.n_filters = 8, .n_resblocks = 8, .scale = 1};
  Rng init_rng(5);
  sr::Edsr reference(cfg, init_rng);

  sr::TrainOptions opts;
  opts.iterations = 500;
  opts.patch_size = 24;
  opts.batch_size = 4;
  opts.lr = 3e-3;

  std::printf("Fig. 11: training loss (MSE) vs training data size "
              "(8 filters / 8 ResBlocks, identical init)\n\n");
  Table t({"training images", "final train MSE", "train PSNR (dB)"});
  double prev_loss = 0.0;
  for (const int n : {10, 50, 100, 150}) {
    Rng rng(99);  // same sampling stream per run
    sr::Edsr model(cfg, rng);
    nn::copy_params(reference, model);
    const std::vector<sr::TrainSample> data(pool.begin(), pool.begin() + n);
    const sr::TrainStats stats = sr::train_sr_model(model, data, opts, rng);
    t.add_row({std::to_string(n), fmt(stats.final_loss, 6),
               fmt(sr::evaluate_psnr(model, data), 2)});
    prev_loss = stats.final_loss;
  }
  (void)prev_loss;
  std::printf("%s\n", t.to_string().c_str());
  std::printf("(paper: loss increases monotonically from 10 to 150 images —\n"
              " smaller per-model datasets are easier to memorise)\n");
  return 0;
}

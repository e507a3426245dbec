#pragma once

#include <vector>

#include "image/frame.hpp"
#include "sr/edsr.hpp"
#include "util/rng.hpp"

namespace dcsr::sr {

/// One training pair: the degraded frame the client will actually see
/// (decoded at the streaming CRF) and its pristine original. For scale > 1
/// the lo frame is additionally 1/scale the size of hi.
struct TrainSample {
  FrameRGB lo;
  FrameRGB hi;
};

/// Plain MSE on random aligned crops at a flat learning rate: a micro model is
/// meant to memorise its cluster's I frames (§3.1.3, Fig. 11), so the
/// trainer has no regularisers (L1, lr decay, augmentation) to generalise.
struct TrainOptions {
  int iterations = 200;
  int patch_size = 32;   // lo-res patch edge; hi patch is patch_size * scale
  int batch_size = 4;
  double lr = 2e-3;
};

struct TrainStats {
  std::vector<double> loss_curve;  // per-iteration minibatch loss
  double final_loss = 0.0;         // mean of the last 10 iterations
  std::uint64_t train_flops = 0;   // total forward+backward FLOPs spent
};

/// Trains an SR model on the given pairs by sampling random aligned patches.
/// This is the micro-model training loop of §3.1.3 — the same code trains
/// the big NAS/NEMO baseline models, just with more data and a larger config.
TrainStats train_sr_model(Edsr& model, const std::vector<TrainSample>& samples,
                          const TrainOptions& opts, Rng& rng);

/// Mean PSNR (dB) of model(lo) against hi over the given samples — the
/// "how well does the model enhance its own training I frames" measure used
/// both for evaluation and the minimum-working-model search.
double evaluate_psnr(const Edsr& model, const std::vector<TrainSample>& samples);

/// Mean SSIM over the samples.
double evaluate_ssim(const Edsr& model, const std::vector<TrainSample>& samples);

}  // namespace dcsr::sr

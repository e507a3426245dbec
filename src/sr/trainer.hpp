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

/// One model to train: its pairs and the Rng stream its patches come from.
struct TrainJob {
  Edsr& model;
  const std::vector<TrainSample>& samples;
  Rng& rng;
};

/// Trains every job's model on its own pairs by sampling random aligned
/// patches — the micro-model training loop of §3.1.3, which also trains the
/// big NAS/NEMO baseline models with more data and a larger config.
///
/// The jobs run in lockstep, one step at a time. Each step draws every job's
/// patches serially from that job's Rng, then runs one parallel region over
/// all jobs x batch_size (job, item) units: each unit runs the whole
/// network's forward and backward for one item on a private replica of its
/// job's model. The replicas' gradients are summed into the model in item
/// order, and the loss in batch order, so a job trains to the same bits
/// alone or beside others, at any thread count.
///
/// Every option and every job is validated before any model is touched; a
/// bad one throws std::invalid_argument naming it. Returns one TrainStats
/// per job, in job order.
std::vector<TrainStats> train_sr_models(const std::vector<TrainJob>& jobs,
                                        const TrainOptions& opts);

/// train_sr_models for a single model.
TrainStats train_sr_model(Edsr& model, const std::vector<TrainSample>& samples,
                          const TrainOptions& opts, Rng& rng);

/// Mean PSNR (dB) of model(lo) against hi over the given samples — the
/// "how well does the model enhance its own training I frames" measure used
/// both for evaluation and the minimum-working-model search.
double evaluate_psnr(const Edsr& model, const std::vector<TrainSample>& samples);

}  // namespace dcsr::sr

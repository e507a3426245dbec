#include "sr/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "image/metrics.hpp"
#include "nn/optim.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::sr {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("train_sr_models: " + what);
}

void validate(const std::vector<TrainJob>& jobs, const TrainOptions& opts) {
  if (opts.iterations < 0) reject("TrainOptions::iterations must be >= 0");
  if (opts.patch_size < 1) reject("TrainOptions::patch_size must be >= 1");
  if (opts.batch_size < 1) reject("TrainOptions::batch_size must be >= 1");
  if (!std::isfinite(opts.lr) || opts.lr <= 0.0)
    reject("TrainOptions::lr must be finite and > 0");
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::string job = "job " + std::to_string(j);
    const int scale = jobs[j].model.config().scale;
    if (jobs[j].samples.empty()) reject(job + ": no samples");
    for (std::size_t i = 0; i < jobs[j].samples.size(); ++i) {
      const TrainSample& s = jobs[j].samples[i];
      const std::string sample = job + ", sample " + std::to_string(i);
      // fill_patch reads every plane at the r plane's extent.
      for (const FrameRGB* f : {&s.lo, &s.hi})
        if (!f->r.same_size(f->g) || !f->r.same_size(f->b))
          reject(sample + ": planes of different sizes");
      if (s.hi.width() != s.lo.width() * scale || s.hi.height() != s.lo.height() * scale)
        reject(sample + ": lo/hi size mismatch for scale");
      if (s.lo.width() < opts.patch_size || s.lo.height() < opts.patch_size)
        reject(sample + ": frame smaller than patch");
    }
  }
}

// Copies an aligned (lo, hi) patch pair into single-item tensors.
void fill_patch(const TrainSample& s, int scale, int patch, int x0, int y0,
                Tensor& lo, Tensor& hi) {
  const Plane* lo_planes[3] = {&s.lo.r, &s.lo.g, &s.lo.b};
  const Plane* hi_planes[3] = {&s.hi.r, &s.hi.g, &s.hi.b};
  for (int c = 0; c < 3; ++c) {
    for (int y = 0; y < patch; ++y)
      for (int x = 0; x < patch; ++x)
        lo.at(0, c, y, x) = lo_planes[c]->at(x0 + x, y0 + y);
    const int hp = patch * scale;
    for (int y = 0; y < hp; ++y)
      for (int x = 0; x < hp; ++x)
        hi.at(0, c, y, x) = hi_planes[c]->at(x0 * scale + x, y0 * scale + y);
  }
}

// One (job, batch item) of a training step: a replica of the job's model and
// the item's patch pair, prediction and loss gradient. Units live for the
// whole call, so layer caches and buffers keep their capacity across steps.
struct Unit {
  std::unique_ptr<Edsr> replica;
  std::vector<nn::Param*> params;
  Tensor lo, hi, pred, grad;
};

// Forward and backward of one item on the unit's replica, loaded with the
// job's current weights. The MSE gradient is 2 d / n with n the whole batch's
// element count, the same floats nn::mse_loss gives over the batch tensor.
void train_item(Unit& u, const std::vector<nn::Param*>& master, double batch_numel) {
  for (std::size_t p = 0; p < master.size(); ++p) {
    u.params[p]->value = master[p]->value;
    u.params[p]->grad.zero();
  }
  u.pred = u.replica->forward(u.lo);
  u.grad.reset(u.pred.shape());
  for (std::size_t i = 0; i < u.pred.size(); ++i)
    u.grad[i] = 2.0f * (u.pred[i] - u.hi[i]) / static_cast<float>(batch_numel);
  u.replica->backward(u.grad);
}

}  // namespace

std::vector<TrainStats> train_sr_models(const std::vector<TrainJob>& jobs,
                                        const TrainOptions& opts) {
  validate(jobs, opts);
  const int patch = opts.patch_size;
  const auto batch = static_cast<std::size_t>(opts.batch_size);
  std::vector<TrainStats> stats(jobs.size());
  std::vector<std::vector<nn::Param*>> masters;
  std::vector<std::unique_ptr<nn::Adam>> optims;
  std::vector<Unit> units(jobs.size() * batch);
  // Elements in job j's whole batch of hi patches: the MSE's divisor.
  const auto batch_numel = [&](std::size_t j) {
    return static_cast<double>(batch * units[j * batch].hi.size());
  };
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    Edsr& model = jobs[j].model;
    const int scale = model.config().scale;
    masters.push_back(model.params());
    optims.push_back(std::make_unique<nn::Adam>(masters.back(), opts.lr));
    stats[j].loss_curve.reserve(static_cast<std::size_t>(opts.iterations));
    Rng init(0);  // replica weights are overwritten before every use
    for (std::size_t b = 0; b < batch; ++b) {
      Unit& u = units[j * batch + b];
      u.replica = std::make_unique<Edsr>(model.config(), init);
      u.params = u.replica->params();
      u.lo = Tensor({1, 3, patch, patch});
      u.hi = Tensor({1, 3, patch * scale, patch * scale});
    }
  }

  for (int it = 0; it < opts.iterations; ++it) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const TrainJob& job = jobs[j];
      const int scale = job.model.config().scale;
      for (std::size_t b = 0; b < batch; ++b) {
        const auto& s = job.samples[static_cast<std::size_t>(job.rng.uniform_int(
            0, static_cast<std::int64_t>(job.samples.size()) - 1))];
        const int x0 = static_cast<int>(job.rng.uniform_int(0, s.lo.width() - patch));
        const int y0 = static_cast<int>(job.rng.uniform_int(0, s.lo.height() - patch));
        Unit& u = units[j * batch + b];
        fill_patch(s, scale, patch, x0, y0, u.lo, u.hi);
      }
    }
    // Each chunk owns the Unit records [lo, hi); a unit's replica is its own
    // heap state, and the job's weights are only read.
    parallel_for_writes(
        0, static_cast<std::int64_t>(units.size()), 1,
        [&](std::int64_t lo, std::int64_t hi) {
          return span_of(units.data() + lo, static_cast<std::size_t>(hi - lo));
        },
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            const auto j = static_cast<std::size_t>(i) / batch;
            train_item(units[static_cast<std::size_t>(i)], masters[j], batch_numel(j));
          }
        },
        "sr/trainer.cpp:train_sr_models(units)");
    // Loss and parameter gradients reduce over items in batch order, the
    // order of the batch tensor and of Conv2d::backward's dW/db sums.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      double acc = 0.0;
      for (std::size_t b = 0; b < batch; ++b) {
        const Unit& u = units[j * batch + b];
        for (std::size_t i = 0; i < u.pred.size(); ++i) {
          const float d = u.pred[i] - u.hi[i];
          acc += static_cast<double>(d) * static_cast<double>(d);
        }
      }
      for (std::size_t p = 0; p < masters[j].size(); ++p) {
        Tensor& grad = masters[j][p]->grad;
        grad.zero();
        for (std::size_t b = 0; b < batch; ++b)
          grad.add_(units[j * batch + b].params[p]->grad);
      }
      optims[j]->step();
      stats[j].loss_curve.push_back(acc / batch_numel(j));
      stats[j].train_flops += 3 * jobs[j].model.flops(patch, patch) * batch;
    }
  }

  for (TrainStats& st : stats) {
    const auto tail_n = std::min<std::size_t>(10, st.loss_curve.size());
    double acc = 0.0;
    for (std::size_t i = st.loss_curve.size() - tail_n; i < st.loss_curve.size(); ++i)
      acc += st.loss_curve[i];
    st.final_loss = tail_n ? acc / static_cast<double>(tail_n) : 0.0;
  }
  return stats;
}

TrainStats train_sr_model(Edsr& model, const std::vector<TrainSample>& samples,
                          const TrainOptions& opts, Rng& rng) {
  return train_sr_models({{model, samples, rng}}, opts).front();
}

double evaluate_psnr(const Edsr& model, const std::vector<TrainSample>& samples) {
  if (samples.empty()) throw std::invalid_argument("evaluate_psnr: no samples");
  double acc = 0.0;
  FrameRGB out;
  for (const auto& s : samples) {
    model.enhance_into(s.lo, out);
    acc += psnr(out, s.hi);
  }
  return acc / static_cast<double>(samples.size());
}

}  // namespace dcsr::sr

#include "sr/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "image/metrics.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"

namespace dcsr::sr {

namespace {

// Copies an aligned (lo, hi) patch pair into batch tensors at row b.
void fill_patch(const TrainSample& s, int scale, int patch, int b, int x0,
                int y0, Tensor& lo_batch, Tensor& hi_batch) {
  const Plane* lo_planes[3] = {&s.lo.r, &s.lo.g, &s.lo.b};
  const Plane* hi_planes[3] = {&s.hi.r, &s.hi.g, &s.hi.b};
  for (int c = 0; c < 3; ++c) {
    for (int y = 0; y < patch; ++y)
      for (int x = 0; x < patch; ++x)
        lo_batch.at(b, c, y, x) = lo_planes[c]->at(x0 + x, y0 + y);
    const int hp = patch * scale;
    for (int y = 0; y < hp; ++y)
      for (int x = 0; x < hp; ++x)
        hi_batch.at(b, c, y, x) = hi_planes[c]->at(x0 * scale + x, y0 * scale + y);
  }
}

}  // namespace

TrainStats train_sr_model(Edsr& model, const std::vector<TrainSample>& samples,
                          const TrainOptions& opts, Rng& rng) {
  if (samples.empty()) throw std::invalid_argument("train_sr_model: no samples");
  const int scale = model.config().scale;
  for (const auto& s : samples) {
    if (s.hi.width() != s.lo.width() * scale || s.hi.height() != s.lo.height() * scale)
      throw std::invalid_argument("train_sr_model: lo/hi size mismatch for scale");
    if (s.lo.width() < opts.patch_size || s.lo.height() < opts.patch_size)
      throw std::invalid_argument("train_sr_model: frame smaller than patch");
  }

  nn::Adam opt(model.params(), opts.lr);
  TrainStats stats;
  stats.loss_curve.reserve(static_cast<std::size_t>(opts.iterations));
  const int patch = opts.patch_size;
  const std::uint64_t flops_per_iter =
      3 * model.flops(patch, patch) * static_cast<std::uint64_t>(opts.batch_size);

  Tensor lo_batch({opts.batch_size, 3, patch, patch});
  Tensor hi_batch({opts.batch_size, 3, patch * scale, patch * scale});

  for (int it = 0; it < opts.iterations; ++it) {
    for (int b = 0; b < opts.batch_size; ++b) {
      const auto& s = samples[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(samples.size()) - 1))];
      const int x0 = static_cast<int>(rng.uniform_int(0, s.lo.width() - patch));
      const int y0 = static_cast<int>(rng.uniform_int(0, s.lo.height() - patch));
      fill_patch(s, scale, patch, b, x0, y0, lo_batch, hi_batch);
    }
    model.zero_grad();
    const Tensor pred = model.forward(lo_batch);
    const nn::LossResult loss = nn::mse_loss(pred, hi_batch);
    model.backward(loss.grad);
    opt.step();
    stats.loss_curve.push_back(loss.value);
    stats.train_flops += flops_per_iter;
  }

  const auto tail_n = std::min<std::size_t>(10, stats.loss_curve.size());
  double acc = 0.0;
  for (std::size_t i = stats.loss_curve.size() - tail_n; i < stats.loss_curve.size(); ++i)
    acc += stats.loss_curve[i];
  stats.final_loss = tail_n ? acc / static_cast<double>(tail_n) : 0.0;
  return stats;
}

double evaluate_psnr(const Edsr& model, const std::vector<TrainSample>& samples) {
  if (samples.empty()) throw std::invalid_argument("evaluate_psnr: no samples");
  double acc = 0.0;
  for (const auto& s : samples) acc += psnr(model.enhance(s.lo), s.hi);
  return acc / static_cast<double>(samples.size());
}

double evaluate_ssim(const Edsr& model, const std::vector<TrainSample>& samples) {
  if (samples.empty()) throw std::invalid_argument("evaluate_ssim: no samples");
  double acc = 0.0;
  for (const auto& s : samples) acc += ssim(model.enhance(s.lo), s.hi);
  return acc / static_cast<double>(samples.size());
}

}  // namespace dcsr::sr

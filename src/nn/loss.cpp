#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

namespace dcsr::nn {

LossResult mse_loss(const Tensor& pred, const Tensor& target) {
  if (!pred.same_shape(target))
    throw std::invalid_argument("mse_loss: shape mismatch");
  LossResult r;
  r.grad = Tensor(pred.shape());
  const auto n = static_cast<double>(pred.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float d = pred[i] - target[i];
    acc += static_cast<double>(d) * static_cast<double>(d);
    r.grad[i] = 2.0f * d / static_cast<float>(n);
  }
  r.value = acc / n;
  return r;
}

KlResult kl_divergence(const Tensor& mu, const Tensor& logvar) {
  if (!mu.same_shape(logvar))
    throw std::invalid_argument("kl_divergence: shape mismatch");
  if (mu.rank() != 2)
    throw std::invalid_argument("kl_divergence: expected (batch x latent)");
  KlResult r;
  r.grad_mu = Tensor(mu.shape());
  r.grad_logvar = Tensor(mu.shape());
  const auto batch = static_cast<double>(mu.dim(0));
  double acc = 0.0;
  for (std::size_t i = 0; i < mu.size(); ++i) {
    const double m = mu[i];
    const double lv = logvar[i];
    const double ev = std::exp(lv);
    acc += -0.5 * (1.0 + lv - m * m - ev);
    r.grad_mu[i] = static_cast<float>(m / batch);
    r.grad_logvar[i] = static_cast<float>(0.5 * (ev - 1.0) / batch);
  }
  r.value = acc / batch;
  return r;
}

}  // namespace dcsr::nn

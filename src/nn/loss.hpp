#pragma once

#include "tensor/tensor.hpp"

namespace dcsr::nn {

/// Loss value plus gradient of the loss w.r.t. the prediction.
struct LossResult {
  double value = 0.0;
  Tensor grad;
};

/// Mean-squared-error loss, the training objective of EDSR and the VAE
/// reconstruction term. grad = 2*(pred - target)/N.
LossResult mse_loss(const Tensor& pred, const Tensor& target);

/// Analytic KL divergence between N(mu, exp(logvar)) and N(0, 1), summed over
/// latent dimensions and averaged over the batch — the VAE regulariser from
/// Eq. (1) of the paper. Returns the loss plus gradients w.r.t. mu and logvar.
struct KlResult {
  double value = 0.0;
  Tensor grad_mu;
  Tensor grad_logvar;
};
KlResult kl_divergence(const Tensor& mu, const Tensor& logvar);

}  // namespace dcsr::nn

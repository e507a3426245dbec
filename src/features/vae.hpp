#pragma once

#include <memory>
#include <vector>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/optim.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace dcsr::features {

/// Convolutional variational autoencoder used to embed I-frame thumbnails
/// into a latent space where Euclidean distance tracks visual similarity
/// (§3.1.1 / Fig. 3 of the paper). Both encoder and decoder are trained, but
/// only the encoder's mean head is used downstream: mu(x) is the feature
/// vector handed to the clustering stage.
class Vae {
 public:
  struct Config {
    int input_size = 32;    // thumbnails are input_size x input_size RGB
    int latent_dim = 8;
    int base_channels = 8;  // encoder channel width (doubles after stride 2)
    int hidden = 64;        // bottleneck FC width
  };

  Vae(const Config& cfg, Rng& rng);

  const Config& config() const noexcept { return cfg_; }

  /// One optimisation step on a batch (N x 3 x S x S, values in [0,1]).
  /// Loss is  recon_mse + beta * KL(N(mu, sigma) || N(0,1))  — Eq. (1) of
  /// the paper with the reconstruction weight folded into beta.
  struct StepStats {
    double recon_mse = 0.0;
    double kl = 0.0;
  };
  StepStats train_step(const Tensor& batch, nn::Adam& opt, Rng& rng,
                       float beta = 1e-3f);

  /// Latent mean vectors, one row per batch item (N x latent_dim). The
  /// deterministic embedding used for clustering. Runs the stateless infer
  /// path, so a trained (const) VAE can embed from multiple threads.
  Tensor encode_mu(const Tensor& batch) const;

  /// Decoder(mu(x)) — reconstruction without sampling, for inspection.
  Tensor reconstruct(const Tensor& batch) const;

  std::vector<nn::Param*> params();

 private:
  struct Heads {
    Tensor mu, logvar;
  };
  Heads encode_heads(const Tensor& batch);

  Config cfg_;
  nn::Sequential trunk_;     // conv encoder + FC, ends in hidden activations
  nn::Linear head_mu_;
  nn::Linear head_logvar_;
  nn::Sequential decoder_;   // latent -> image
};

/// Trains a VAE on a set of thumbnails for the given number of epochs with a
/// fixed minibatch size. Convenience wrapper used by the server pipeline.
/// (Returned by pointer: models own non-copyable layer state.)
std::unique_ptr<Vae> train_vae(const std::vector<Tensor>& thumbnails,
                               const Vae::Config& cfg, int epochs, Rng& rng,
                               double lr = 2e-3, float beta = 1e-3f);

}  // namespace dcsr::features

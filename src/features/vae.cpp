#include "features/vae.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "nn/shape_ops.hpp"

namespace dcsr::features {

Vae::Vae(const Config& cfg, Rng& rng)
    : cfg_(cfg),
      head_mu_(cfg.hidden, cfg.latent_dim, rng),
      head_logvar_(cfg.hidden, cfg.latent_dim, rng) {
  if (cfg.input_size % 4 != 0)
    throw std::invalid_argument("Vae: input_size must be divisible by 4");
  const int c = cfg.base_channels;
  const int s4 = cfg.input_size / 4;

  // Encoder trunk: two stride-2 convs halve the resolution twice, then a FC
  // bottleneck. ReLU throughout, matching the standard conv-VAE recipe.
  trunk_.emplace<nn::Conv2d>(3, c, 3, rng, /*stride=*/2, /*pad=*/1);
  trunk_.emplace<nn::ReLU>();
  trunk_.emplace<nn::Conv2d>(c, 2 * c, 3, rng, /*stride=*/2, /*pad=*/1);
  trunk_.emplace<nn::ReLU>();
  trunk_.emplace<nn::Flatten>();
  trunk_.emplace<nn::Linear>(2 * c * s4 * s4, cfg.hidden, rng);
  trunk_.emplace<nn::ReLU>();

  // Decoder: mirror of the encoder with nearest-neighbour upsampling and a
  // sigmoid output so reconstructions live in [0,1] like the inputs.
  decoder_.emplace<nn::Linear>(cfg.latent_dim, cfg.hidden, rng);
  decoder_.emplace<nn::ReLU>();
  decoder_.emplace<nn::Linear>(cfg.hidden, 2 * c * s4 * s4, rng);
  decoder_.emplace<nn::ReLU>();
  decoder_.emplace<nn::Reshape4>(2 * c, s4, s4);
  decoder_.emplace<nn::UpsampleNearest>(2);
  decoder_.emplace<nn::Conv2d>(2 * c, c, 3, rng);
  decoder_.emplace<nn::ReLU>();
  decoder_.emplace<nn::UpsampleNearest>(2);
  decoder_.emplace<nn::Conv2d>(c, 3, 3, rng);
  decoder_.emplace<nn::Sigmoid>();
}

Vae::Heads Vae::encode_heads(const Tensor& batch) {
  const Tensor h = trunk_.forward(batch);
  return {head_mu_.forward(h), head_logvar_.forward(h)};
}

Tensor Vae::encode_mu(const Tensor& batch) const {
  return head_mu_.infer(trunk_.infer(batch));
}

Tensor Vae::reconstruct(const Tensor& batch) const {
  return decoder_.infer(encode_mu(batch));
}

std::vector<nn::Param*> Vae::params() {
  std::vector<nn::Param*> ps = trunk_.params();
  for (nn::Param* p : head_mu_.params()) ps.push_back(p);
  for (nn::Param* p : head_logvar_.params()) ps.push_back(p);
  for (nn::Param* p : decoder_.params()) ps.push_back(p);
  return ps;
}

Vae::StepStats Vae::train_step(const Tensor& batch, nn::Adam& opt, Rng& rng,
                               float beta) {
  for (nn::Param* p : params()) p->grad.zero();

  const Heads heads = encode_heads(batch);
  const Tensor& mu = heads.mu;
  const Tensor& logvar = heads.logvar;

  // Reparameterisation: z = mu + eps * exp(logvar / 2).
  Tensor eps(mu.shape());
  for (std::size_t i = 0; i < eps.size(); ++i)
    eps[i] = static_cast<float>(rng.normal());
  Tensor z = mu;
  for (std::size_t i = 0; i < z.size(); ++i)
    z[i] += eps[i] * std::exp(0.5f * logvar[i]);

  const Tensor xhat = decoder_.forward(z);
  const nn::LossResult recon = nn::mse_loss(xhat, batch);
  const nn::KlResult kl = nn::kl_divergence(mu, logvar);

  // Backward through the decoder gives dL/dz.
  const Tensor dz = decoder_.backward(recon.grad);

  // dL/dmu = dz + beta * dKL/dmu ;  dL/dlogvar via the sampling path plus
  // the KL term.
  Tensor dmu = dz;
  Tensor dlogvar(logvar.shape());
  for (std::size_t i = 0; i < dmu.size(); ++i) {
    dmu[i] += beta * kl.grad_mu[i];
    dlogvar[i] = dz[i] * eps[i] * 0.5f * std::exp(0.5f * logvar[i]) +
                 beta * kl.grad_logvar[i];
  }

  // Both heads share the trunk output: sum their input gradients.
  Tensor dh = head_mu_.backward(dmu);
  dh.add_(head_logvar_.backward(dlogvar));
  trunk_.backward(dh);

  opt.step();
  return {recon.value, kl.value};
}

std::unique_ptr<Vae> train_vae(const std::vector<Tensor>& thumbnails,
                               const Vae::Config& cfg, int epochs, Rng& rng,
                               double lr, float beta) {
  if (thumbnails.empty()) throw std::invalid_argument("train_vae: no data");
  auto vae_ptr = std::make_unique<Vae>(cfg, rng);
  Vae& vae = *vae_ptr;
  nn::Adam opt(vae.params(), lr);

  constexpr int kBatch = 8;
  std::vector<std::size_t> order(thumbnails.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  const int S = cfg.input_size;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += kBatch) {
      const auto count =
          std::min<std::size_t>(kBatch, order.size() - start);
      Tensor batch({static_cast<int>(count), 3, S, S});
      for (std::size_t b = 0; b < count; ++b) {
        const Tensor& t = thumbnails[order[start + b]];
        if (t.shape() != Shape{1, 3, S, S})
          throw std::invalid_argument("train_vae: thumbnail shape mismatch");
        std::copy(t.data(), t.data() + t.size(),
                  batch.data() + b * t.size());
      }
      vae.train_step(batch, opt, rng, beta);
    }
  }
  return vae_ptr;
}

}  // namespace dcsr::features

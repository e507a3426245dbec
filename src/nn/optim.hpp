#pragma once

#include <vector>

#include "nn/module.hpp"

namespace dcsr::nn {

/// Optimiser interface: step() applies accumulated Param::grad to values.
/// Callers are responsible for zero_grad() between iterations.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Param*> params) : params_(std::move(params)) {}
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;
  virtual ~Optimizer() = default;

  virtual void step() = 0;

  void set_lr(double lr) noexcept { lr_ = lr; }
  double lr() const noexcept { return lr_; }

 protected:
  std::vector<Param*> params_;
  double lr_ = 1e-3;
};

/// Adam (Kingma & Ba). Defaults match the EDSR training recipe
/// (lr 1e-4 is typical for full EDSR; micro models tolerate larger).
/// Optional decoupled weight decay (AdamW-style) and global-norm gradient
/// clipping — both off by default; dcSR *wants* to overfit, so regularisers
/// exist for the generalisation ablations, not the main pipeline.
class Adam final : public Optimizer {
 public:
  explicit Adam(std::vector<Param*> params, double lr = 1e-3,
                double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);
  void step() override;

  /// Decoupled weight decay: value -= lr * decay * value before the update.
  void set_weight_decay(double decay) noexcept { weight_decay_ = decay; }

  /// If > 0, gradients are rescaled when their global L2 norm exceeds this.
  void set_grad_clip(double max_norm) noexcept { grad_clip_ = max_norm; }

  /// Global gradient L2 norm at the most recent step (for diagnostics).
  double last_grad_norm() const noexcept { return last_grad_norm_; }

 private:
  double beta1_, beta2_, eps_;
  double weight_decay_ = 0.0;
  double grad_clip_ = 0.0;
  double last_grad_norm_ = 0.0;
  std::vector<Tensor> m_, v_;
  long t_ = 0;
};

}  // namespace dcsr::nn

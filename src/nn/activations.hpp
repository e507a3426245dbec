#pragma once

#include "nn/module.hpp"

namespace dcsr::nn {

/// Rectified linear unit, y = max(0, x).
class ReLU final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_output_;  // y > 0 exactly where x > 0
};

/// Logistic sigmoid, y = 1 / (1 + e^-x). Used at the VAE decoder output so
/// reconstructions stay in [0,1] like the normalised pixel inputs.
class Sigmoid final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const override;
  std::string name() const override { return "Sigmoid"; }

 private:
  Tensor cached_output_;
};

}  // namespace dcsr::nn

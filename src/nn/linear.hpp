#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace dcsr::nn {

/// Fully connected layer over (N x in_features) inputs.
/// Weight layout is (out_features x in_features); forward is x * W^T + b.
class Linear final : public Module {
 public:
  Linear(int in_features, int out_features, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const override;
  Shape out_shape(const Shape& in) const override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Linear"; }

  int in_features() const noexcept { return in_features_; }
  int out_features() const noexcept { return out_features_; }

 private:
  int in_features_, out_features_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

}  // namespace dcsr::nn

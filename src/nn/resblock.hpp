#pragma once

#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/module.hpp"

namespace dcsr::nn {

/// EDSR residual block: conv3x3 -> ReLU -> conv3x3, scaled and added to the
/// input (Lim et al., CVPRW'17). EDSR drops batch-norm entirely, which is
/// also what makes the block cheap enough for dcSR's micro models.
class ResBlock final : public Module {
 public:
  ResBlock(int channels, Rng& rng, float res_scale = 1.0f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const override;
  std::vector<Param*> params() override;
  std::string name() const override { return "ResBlock"; }

  float res_scale() const noexcept { return res_scale_; }

 private:
  Conv2d conv1_;
  ReLU relu_;
  Conv2d conv2_;
  float res_scale_;
};

}  // namespace dcsr::nn

#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace dcsr::nn {

/// 2-D convolution over NCHW tensors.
///
/// Training (forward/backward) always runs im2col + GEMM: backward needs the
/// column matrix for dW anyway, so forward builds it once per step and keeps
/// it. Inference (infer_into) runs the direct 3x3 kernel (conv3x3_into) when
/// kernel = 3, stride = 1 and pad = 1, the geometry of every SR-model conv,
/// and im2col + GEMM for any other geometry (the VAE's stride-2 convs, for
/// example). Both paths perform the same float ops per output element, so
/// infer_into is bit-identical to forward (Infer.MatchesForwardBitwisePerLayer).
///
/// Weight layout is (out_channels) x (in_channels * k * k), i.e. the GEMM
/// left operand; bias is one scalar per output channel. He-normal init.
class Conv2d final : public Module {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, Rng& rng, int stride = 1,
         int pad = -1 /* -1 => same padding for stride 1 */);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const override;
  /// infer_into with the fused bias epilogue extended to clamp at zero —
  /// lets ResBlock fold its inner ReLU into conv1's bias pass. Bit-identical
  /// to infer_into followed by a separate ReLU layer.
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws,
                  bool fuse_relu) const;
  Shape out_shape(const Shape& in) const override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Conv2d"; }

  int in_channels() const noexcept { return in_channels_; }
  int out_channels() const noexcept { return out_channels_; }
  int kernel() const noexcept { return kernel_; }
  int stride() const noexcept { return stride_; }
  int pad() const noexcept { return pad_; }

  Param& weight() noexcept { return weight_; }
  Param& bias() noexcept { return bias_; }

 private:
  int in_channels_, out_channels_, kernel_, stride_, pad_;
  Param weight_;
  Param bias_;
  Shape cached_in_shape_;  // shape of the dX that col2im scatters into
  // im2col of each batch item, built by forward and reused by backward so
  // the columns are computed once per step instead of twice. Each slot is
  // reset in place, so its capacity carries over from step to step.
  std::vector<Tensor> cached_cols_;
};

}  // namespace dcsr::nn

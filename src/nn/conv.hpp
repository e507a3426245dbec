#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace dcsr::nn {

/// 2-D convolution over NCHW tensors.
///
/// One path per geometry, shared by training and inference. Kernel 3,
/// stride 1, pad 1 (every SR-model conv and the VAE decoder's) runs the
/// direct 3x3 kernels: conv3x3_into forward and inference, and backward
/// conv3x3_weight_grad_add and conv3x3_data_grad_into over the zero-bordered
/// input that forward keeps, with no column matrix. Any other geometry (the
/// VAE's stride-2 convs, for example) runs im2col + GEMM, and forward keeps
/// the columns for backward's dW. The direct kernels perform the float ops
/// of im2col + GEMM per element, so every path computes the same bits:
/// infer_into matches forward (Infer.MatchesForwardBitwisePerLayer), and
/// trained weights match the GEMM path's (Trainer.BitIdentical*).
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
  bool direct() const noexcept {
    return kernel_ == 3 && stride_ == 1 && pad_ == 1;
  }
  // Item n of x through this layer's path into `out`: the direct kernel
  // reading a zero-bordered copy it leaves in `scratch`, or im2col into
  // `scratch` then one GEMM with the bias (and ReLU) in its epilogue.
  void run_item(const Tensor& x, int n, Tensor& scratch, float* out,
                bool fuse_relu) const;

  int in_channels_, out_channels_, kernel_, stride_, pad_;
  Param weight_;
  Param bias_;
  Shape cached_in_shape_;  // shape of the dX that backward writes
  // What forward's run_item left in scratch for each batch item, the
  // operand of backward's dW: the padded input or the column matrix. Each
  // slot is reset in place, so its capacity carries over from step to step.
  std::vector<Tensor> cached_;
  Tensor grad_padded_;  // backward scratch: one zero-bordered dY item
};

}  // namespace dcsr::nn

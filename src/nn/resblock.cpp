#include "nn/resblock.hpp"

#include "tensor/workspace.hpp"
#include "util/alloc_check.hpp"

namespace dcsr::nn {

ResBlock::ResBlock(int channels, Rng& rng, float res_scale)
    : conv1_(channels, channels, 3, rng),
      conv2_(channels, channels, 3, rng),
      res_scale_(res_scale) {}

Tensor ResBlock::forward(const Tensor& x) {
  Tensor y = conv2_.forward(relu_.forward(conv1_.forward(x)));
  y.scale_(res_scale_);
  y.add_(x);
  FiniteCheckGuard{*this, y};
  return y;
}

void ResBlock::infer_into(const Tensor& x, Tensor& out, Workspace& ws) const {
  // conv1 with the ReLU folded into its GEMM epilogue (bit-identical to a
  // separate ReLU layer — see matmul_bias_into), conv2 straight into the
  // caller's buffer, then the residual scale and skip in place.
  HotPathGuard alloc_guard("nn/resblock.cpp:ResBlock::infer_into");
  WorkspaceTensor mid = ws.acquire(conv1_.out_shape(x.shape()));
  conv1_.infer_into(x, *mid, ws, /*fuse_relu=*/true);
  conv2_.infer_into(*mid, out, ws);
  out.scale_(res_scale_);
  out.add_(x);
  FiniteCheckGuard{*this, out};
}

Tensor ResBlock::backward(const Tensor& grad_out) {
  Tensor branch = grad_out;
  branch.scale_(res_scale_);
  Tensor grad = conv1_.backward(relu_.backward(conv2_.backward(branch)));
  grad.add_(grad_out);  // identity skip
  return grad;
}

std::vector<Param*> ResBlock::params() {
  std::vector<Param*> ps = conv1_.params();
  const auto p2 = conv2_.params();
  ps.insert(ps.end(), p2.begin(), p2.end());
  return ps;
}

}  // namespace dcsr::nn

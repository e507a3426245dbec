#include "nn/linear.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "util/alloc_check.hpp"

namespace dcsr::nn {

Linear::Linear(int in_features, int out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Tensor::randn({out_features, in_features}, rng,
                            std::sqrt(2.0f / static_cast<float>(in_features)))),
      bias_(Tensor({out_features, 1})) {}

Tensor Linear::forward(const Tensor& x) {
  Tensor out = infer(x);
  cached_input_ = x;
  return out;
}

Shape Linear::out_shape(const Shape& in) const {
  if (in.size() != 2 || in[1] != in_features_) {
    AllocAllowScope allow;  // error path may run under a hot-path guard
    throw std::invalid_argument("Linear::out_shape: bad input shape");
  }
  return {in[0], out_features_};
}

void Linear::infer_into(const Tensor& x, Tensor& out, Workspace& ws) const {
  (void)ws;  // x * W^T writes straight into `out`; no intermediates needed
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    AllocAllowScope allow;  // error path may run under a hot-path guard
    throw std::invalid_argument("Linear: bad input shape " + x.shape().str());
  }
  HotPathGuard alloc_guard("nn/linear.cpp:Linear::infer_into");
  matmul_nt_into(x, weight_.value, out);  // N x out
  const int N = x.dim(0);
  for (int n = 0; n < N; ++n)
    for (int o = 0; o < out_features_; ++o)
      out.at(n, o) += bias_.value[static_cast<std::size_t>(o)];
  FiniteCheckGuard{*this, out};
}

Tensor Linear::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  if (x.empty()) throw std::logic_error("Linear::backward before forward");
  // dW = dY^T * X ; db = colsum(dY) ; dX = dY * W.
  Tensor dw;
  matmul_tn_into(grad_out, x, dw);
  weight_.grad.add_(dw);
  const int N = x.dim(0);
  for (int n = 0; n < N; ++n)
    for (int o = 0; o < out_features_; ++o)
      bias_.grad[static_cast<std::size_t>(o)] += grad_out.at(n, o);
  Tensor dx;
  matmul_into(grad_out, weight_.value, dx);
  return dx;
}

}  // namespace dcsr::nn

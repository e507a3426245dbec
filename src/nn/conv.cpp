#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "util/alloc_check.hpp"

namespace dcsr::nn {

namespace {

Tensor he_init(int out_c, int in_c, int k, Rng& rng) {
  const float fan_in = static_cast<float>(in_c * k * k);
  const float stddev = std::sqrt(2.0f / fan_in);
  return Tensor::randn({out_c, in_c * k * k}, rng, stddev);
}

}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, Rng& rng,
               int stride, int pad)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad < 0 ? kernel / 2 : pad),
      weight_(he_init(out_channels, in_channels, kernel, rng)),
      bias_(Tensor({out_channels, 1})) {}

Shape Conv2d::out_shape(const Shape& in) const {
  if (in.size() != 4 || in[1] != in_channels_) {
    AllocAllowScope allow;  // error path may run under a hot-path guard
    throw std::invalid_argument("Conv2d::out_shape: bad input shape");
  }
  return {in[0], out_channels_,
          conv_out_size_checked(in[2], kernel_, stride_, pad_, "Conv2d"),
          conv_out_size_checked(in[3], kernel_, stride_, pad_, "Conv2d")};
}

void Conv2d::run_item(const Tensor& x, int n, Tensor& scratch, float* out,
                      bool fuse_relu) const {
  if (direct()) {
    conv3x3_into(x, n, weight_.value, bias_.value.data(), fuse_relu, scratch,
                 out);
    return;
  }
  const int oh = conv_out_size(x.dim(2), kernel_, stride_, pad_);
  const int ow = conv_out_size(x.dim(3), kernel_, stride_, pad_);
  scratch.reset({in_channels_ * kernel_ * kernel_, oh * ow});
  im2col_into(x, n, kernel_, stride_, pad_, scratch);
  matmul_bias_into(weight_.value, scratch, bias_.value.data(),
                   MutMat(out, out_channels_, oh * ow), fuse_relu);
}

Tensor Conv2d::forward(const Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_channels_)
    throw std::invalid_argument("Conv2d: bad input shape " + x.shape().str());
  const int N = x.dim(0);
  const int oh = conv_out_size_checked(x.dim(2), kernel_, stride_, pad_, "Conv2d");
  const int ow = conv_out_size_checked(x.dim(3), kernel_, stride_, pad_, "Conv2d");
  cached_in_shape_ = x.shape();
  cached_.resize(static_cast<std::size_t>(N));
  Tensor out({N, out_channels_, oh, ow});
  const std::size_t item_floats =
      static_cast<std::size_t>(out_channels_) * oh * ow;
  for (int n = 0; n < N; ++n)
    run_item(x, n, cached_[static_cast<std::size_t>(n)],
             out.data() + n * item_floats, /*fuse_relu=*/false);
  FiniteCheckGuard{*this, out};
  return out;
}

void Conv2d::infer_into(const Tensor& x, Tensor& out, Workspace& ws) const {
  infer_into(x, out, ws, /*fuse_relu=*/false);
}

void Conv2d::infer_into(const Tensor& x, Tensor& out, Workspace& ws,
                        bool fuse_relu) const {
  if (x.rank() != 4 || x.dim(1) != in_channels_) {
    AllocAllowScope allow;  // error path may run under a hot-path guard
    throw std::invalid_argument("Conv2d: bad input shape " + x.shape().str());
  }
  HotPathGuard alloc_guard("nn/conv.cpp:Conv2d::infer_into");
  const int N = x.dim(0);
  const int oh = conv_out_size_checked(x.dim(2), kernel_, stride_, pad_, "Conv2d");
  const int ow = conv_out_size_checked(x.dim(3), kernel_, stride_, pad_, "Conv2d");
  out.reset({N, out_channels_, oh, ow});
  const std::size_t item_floats =
      static_cast<std::size_t>(out_channels_) * oh * ow;
  // All scratch comes from the caller's workspace, checked out at the size
  // run_item resets it to, so a warm workspace makes the whole call
  // allocation-free. Inference batches are almost always size 1, so items
  // run one after another; the direct kernel runs on the calling thread,
  // and im2col + GEMM parallelise inside.
  WorkspaceTensor scratch =
      direct() ? ws.acquire({in_channels_, oh + 2, ow + 2})
               : ws.acquire({in_channels_ * kernel_ * kernel_, oh * ow});
  for (int n = 0; n < N; ++n)
    run_item(x, n, *scratch, out.data() + n * item_floats, fuse_relu);
  FiniteCheckGuard{*this, out};
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Shape& x = cached_in_shape_;
  if (x.empty()) throw std::logic_error("Conv2d::backward before forward");
  const int N = x[0];
  const int oh = conv_out_size(x[2], kernel_, stride_, pad_);
  const int ow = conv_out_size(x[3], kernel_, stride_, pad_);
  if (grad_out.rank() != 4 || grad_out.dim(0) != N ||
      grad_out.dim(1) != out_channels_ || grad_out.dim(2) != oh ||
      grad_out.dim(3) != ow)
    throw std::invalid_argument("Conv2d::backward: grad shape " +
                                grad_out.shape().str() + " does not match " +
                                "cached forward output");
  Tensor grad_in(x);
  // Weight and bias gradients accumulate item by item, in item order.
  Tensor dw, dcols;
  for (int n = 0; n < N; ++n) {
    const Tensor& cached = cached_[static_cast<std::size_t>(n)];
    bias_grad_add(grad_out, n, bias_.grad);
    if (direct()) {
      conv3x3_weight_grad_add(cached, grad_out, n, weight_.grad);
      conv3x3_data_grad_into(weight_.value, grad_out, n, grad_padded_, grad_in);
      continue;
    }
    // This item's slice of grad_out is already a contiguous
    // (outC) x (oh*ow) matrix, so view it in place instead of copying.
    // dW += dY * cols^T ; dX_n = col2im(W^T * dY).
    const ConstMat go(grad_out.data() +
                          static_cast<std::size_t>(n) * out_channels_ * oh * ow,
                      out_channels_, oh * ow);
    matmul_nt_into(go, cached, dw);
    weight_.grad.add_(dw);
    matmul_tn_into(weight_.value, go, dcols);
    col2im_add(dcols, grad_in, n, kernel_, stride_, pad_);
  }
  return grad_in;
}

}  // namespace dcsr::nn

#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "util/alloc_check.hpp"
#include "util/thread_pool.hpp"

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

Tensor Conv2d::forward(const Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_channels_)
    throw std::invalid_argument("Conv2d: bad input shape " + x.shape_str());
  const int N = x.dim(0);
  const int oh = conv_out_size_checked(x.dim(2), kernel_, stride_, pad_, "Conv2d");
  const int ow = conv_out_size_checked(x.dim(3), kernel_, stride_, pad_, "Conv2d");
  cached_in_shape_ = x.shape();
  cached_cols_.resize(static_cast<std::size_t>(N));
  Tensor out({N, out_channels_, oh, ow});
  // The kernels of infer_into — im2col_into, then one GEMM with the bias
  // folded into its epilogue, written straight into the item's output
  // planes — so the outputs are bit-identical. The columns land in the
  // item's cache slot for backward instead of a workspace checkout. Batch
  // items are independent and write disjoint output slices; each chunk
  // claims the NCHW output planes of its items [lo, hi). (The per-item
  // cached_cols_ slots are distinct Tensor objects, also indexed by n.)
  const std::size_t item_floats =
      static_cast<std::size_t>(out_channels_) * oh * ow;
  const auto claim = [&, item_floats](std::int64_t lo, std::int64_t hi) {
    return span_of(out.data() + static_cast<std::size_t>(lo) * item_floats,
                   static_cast<std::size_t>(hi - lo) * item_floats);
  };
  parallel_for_writes(0, N, 1, claim, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t n = lo; n < hi; ++n) {
      Tensor& cols = cached_cols_[static_cast<std::size_t>(n)];
      cols.reset({in_channels_ * kernel_ * kernel_, oh * ow});
      im2col_into(x, static_cast<int>(n), kernel_, stride_, pad_, cols);
      matmul_bias_into(weight_.value, cols, bias_.value.data(),
                       MutMat(out.data() + static_cast<std::size_t>(n) * item_floats,
                              out_channels_, oh * ow));
    }
  }, "nn/conv.cpp:Conv2d::forward");
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
    throw std::invalid_argument("Conv2d: bad input shape " + x.shape_str());
  }
  HotPathGuard alloc_guard("nn/conv.cpp:Conv2d::infer_into");
  const int N = x.dim(0);
  const int oh = conv_out_size_checked(x.dim(2), kernel_, stride_, pad_, "Conv2d");
  const int ow = conv_out_size_checked(x.dim(3), kernel_, stride_, pad_, "Conv2d");
  out.reset({N, out_channels_, oh, ow});
  const std::size_t item_floats =
      static_cast<std::size_t>(out_channels_) * oh * ow;
  // All scratch comes from the caller's workspace, so a warm workspace makes
  // the whole call allocation-free. Inference batches are almost always
  // size 1, so items run one after another.
  if (kernel_ == 3 && stride_ == 1 && pad_ == 1) {
    // The SR models' convs: the direct kernel reads a zero-bordered copy of
    // the item instead of a 9x column matrix, bit-identical to the GEMM path
    // below (see conv3x3_into). It runs each item on the calling thread.
    WorkspaceTensor padded = ws.acquire({in_channels_, oh + 2, ow + 2});
    for (int n = 0; n < N; ++n)
      conv3x3_into(x, n, weight_.value, bias_.value.data(), fuse_relu,
                   *padded, out.data() + n * item_floats);
  } else {
    // im2col then one GEMM per item, the GEMM writing each item's plane
    // block in place with the bias (and optional ReLU) folded into its
    // epilogue; the parallelism comes from inside im2col_into and the GEMM.
    WorkspaceTensor cols =
        ws.acquire({in_channels_ * kernel_ * kernel_, oh * ow});
    for (int n = 0; n < N; ++n) {
      im2col_into(x, n, kernel_, stride_, pad_, *cols);
      matmul_bias_into(weight_.value, *cols, bias_.value.data(),
                       MutMat(out.data() + n * item_floats, out_channels_,
                              oh * ow),
                       fuse_relu);
    }
  }
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
                                grad_out.shape_str() + " does not match " +
                                "cached forward output");
  Tensor grad_in(x);
  // Per-item weight/bias partials, reduced in index order after the parallel
  // section: float accumulation order must not depend on the thread count.
  std::vector<Tensor> dw(static_cast<std::size_t>(N));
  std::vector<Tensor> db(static_cast<std::size_t>(N));
  // Each chunk owns its items' grad_in planes (col2im_add only touches item
  // n's slice) plus the per-item dw/db slots reduced serially afterwards.
  const std::size_t in_floats = static_cast<std::size_t>(x[1]) *
                                static_cast<std::size_t>(x[2]) *
                                static_cast<std::size_t>(x[3]);
  const auto claim = [&, in_floats](std::int64_t lo, std::int64_t hi) {
    return span_of(grad_in.data() + static_cast<std::size_t>(lo) * in_floats,
                   static_cast<std::size_t>(hi - lo) * in_floats);
  };
  parallel_for_writes(0, N, 1, claim, [&](std::int64_t lo, std::int64_t hi) {
    // Column gradient, consumed by col2im before the next item needs it: one
    // buffer per chunk, reset in place from item to item.
    Tensor dcols;
    for (std::int64_t item = lo; item < hi; ++item) {
      const int n = static_cast<int>(item);
      // This item's slice of grad_out is already a contiguous
      // (outC) x (oh*ow) matrix, so view it in place instead of copying.
      const float* src = grad_out.data() +
                         static_cast<std::size_t>(n) * out_channels_ * oh * ow;
      const ConstMat go(src, out_channels_, oh * ow);

      const Tensor& cols = cached_cols_[static_cast<std::size_t>(n)];

      // dW_n = dY * cols^T ; db_n = rowsum(dY) ; dX_n = col2im(W^T * dY).
      matmul_nt_into(go, cols, dw[static_cast<std::size_t>(n)]);
      Tensor dbn({out_channels_, 1});
      for (int c = 0; c < out_channels_; ++c) {
        float acc = 0.0f;
        const float* row = src + static_cast<std::size_t>(c) * oh * ow;
        for (int i = 0; i < oh * ow; ++i) acc += row[i];
        dbn[static_cast<std::size_t>(c)] = acc;
      }
      db[static_cast<std::size_t>(n)] = std::move(dbn);
      matmul_tn_into(weight_.value, go, dcols);
      col2im_add(dcols, grad_in, n, kernel_, stride_, pad_);
    }
  }, "nn/conv.cpp:Conv2d::backward");
  for (int n = 0; n < N; ++n) {
    weight_.grad.add_(dw[static_cast<std::size_t>(n)]);
    bias_.grad.add_(db[static_cast<std::size_t>(n)]);
  }
  return grad_in;
}

}  // namespace dcsr::nn

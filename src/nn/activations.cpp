#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/workspace.hpp"
#include "util/alloc_check.hpp"

namespace dcsr::nn {

namespace {

// Both activations share the same shape-preserving elementwise pattern;
// the workspace is unused because the transform needs no scratch at all.
template <typename F>
void map_into(const Tensor& x, Tensor& out, F&& f) {
  HotPathGuard alloc_guard("nn/activations.cpp:map_into");
  out.reset(x.shape());
  const float* src = x.data();
  float* dst = out.data();
  for (std::size_t i = 0; i < x.size(); ++i) dst[i] = f(src[i]);
}

}  // namespace

// ReLU and Sigmoid backward read only the output, so their forward
// runs infer_into straight into the output cache (reusing its capacity from
// the previous step) and hands the caller a copy.
Tensor ReLU::forward(const Tensor& x) {
  infer_into(x, cached_output_, Workspace::local());
  return cached_output_;
}

void ReLU::infer_into(const Tensor& x, Tensor& out, Workspace& ws) const {
  (void)ws;
  map_into(x, out, [](float v) { return v < 0.0f ? 0.0f : v; });
  FiniteCheckGuard{*this, out};
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (cached_output_.empty())
    throw std::logic_error("ReLU::backward before forward");
  Tensor grad = grad_out;
  for (std::size_t i = 0; i < grad.size(); ++i)
    grad[i] *= cached_output_[i] > 0.0f ? 1.0f : 0.0f;
  return grad;
}

Tensor Sigmoid::forward(const Tensor& x) {
  infer_into(x, cached_output_, Workspace::local());
  return cached_output_;
}

void Sigmoid::infer_into(const Tensor& x, Tensor& out, Workspace& ws) const {
  (void)ws;
  map_into(x, out, [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
  FiniteCheckGuard{*this, out};
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  if (cached_output_.empty())
    throw std::logic_error("Sigmoid::backward before forward");
  Tensor grad = grad_out;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const float y = cached_output_[i];
    grad[i] *= y * (1.0f - y);
  }
  return grad;
}

}  // namespace dcsr::nn

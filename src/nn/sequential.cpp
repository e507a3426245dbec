#include "nn/sequential.hpp"

#include "tensor/workspace.hpp"
#include "util/alloc_check.hpp"

namespace dcsr::nn {

Tensor Sequential::forward(const Tensor& x) {
  Tensor y = x;
  for (auto& layer : layers_) {
    y = layer->forward(y);
    FiniteCheckGuard{*layer, y};
  }
  return y;
}

Shape Sequential::out_shape(const Shape& in) const {
  Shape s = in;
  for (const auto& layer : layers_) s = layer->out_shape(s);
  return s;
}

void Sequential::infer_into(const Tensor& x, Tensor& out, Workspace& ws) const {
  if (layers_.empty()) {
    out = x;
    return;
  }
  if (layers_.size() == 1) {
    layers_[0]->infer_into(x, out, ws);
    return;
  }
  // Ping-pong the chain through two workspace checkouts: layer i reads the
  // previous layer's buffer and writes the other one, and the slot freed two
  // layers back goes home before each acquire, so at most two intermediates
  // are ever outstanding no matter how deep the stack is. The last layer
  // writes straight into the caller's `out`.
  HotPathGuard alloc_guard("nn/sequential.cpp:Sequential::infer_into");
  WorkspaceTensor bufs[2];
  int slot = 0;
  const Tensor* cur = &x;
  Shape shape = x.shape();
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    shape = layers_[i]->out_shape(shape);
    bufs[slot] = WorkspaceTensor();  // release before acquiring, not after
    WorkspaceTensor next = ws.acquire(shape);
    layers_[i]->infer_into(*cur, *next, ws);
    bufs[slot] = std::move(next);
    cur = &*bufs[slot];
    slot ^= 1;
  }
  layers_.back()->infer_into(*cur, out, ws);
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> ps;
  for (auto& layer : layers_) {
    const auto child = layer->params();
    ps.insert(ps.end(), child.begin(), child.end());
  }
  return ps;
}

}  // namespace dcsr::nn

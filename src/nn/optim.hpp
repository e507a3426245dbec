#pragma once

#include <vector>

#include "nn/module.hpp"

namespace dcsr::nn {

/// Adam (Kingma & Ba). step() applies the accumulated Param::grad to the
/// values; callers are responsible for zero_grad() between iterations.
/// Defaults match the EDSR training recipe (lr 1e-4 is typical for full
/// EDSR; micro models tolerate larger). No weight decay and no gradient
/// clipping: dcSR *wants* its micro models to overfit their cluster.
class Adam {
 public:
  explicit Adam(std::vector<Param*> params, double lr = 1e-3,
                double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);
  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  void step();

 private:
  std::vector<Param*> params_;
  double lr_, beta1_, beta2_, eps_;
  std::vector<Tensor> m_, v_;
  long t_ = 0;
};

}  // namespace dcsr::nn

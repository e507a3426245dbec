#include "nn/optim.hpp"

#include <cmath>

namespace dcsr::nn {

Adam::Adam(std::vector<Param*> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, t_);
  const double bc2 = 1.0 - std::pow(beta2_, t_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      const double g = p.grad[j];
      m[j] = static_cast<float>(beta1_ * m[j] + (1.0 - beta1_) * g);
      v[j] = static_cast<float>(beta2_ * v[j] + (1.0 - beta2_) * g * g);
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      p.value[j] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
}

}  // namespace dcsr::nn

#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nn/module.hpp"

namespace dcsr::nn {

/// Ordered container of layers; forward chains them, backward runs in
/// reverse. Owns its children.
class Sequential final : public Module {
 public:
  Sequential() = default;

  void add(ModulePtr m) { layers_.push_back(std::move(m)); }

  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto m = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *m;
    layers_.push_back(std::move(m));
    return ref;
  }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const override;
  Shape out_shape(const Shape& in) const override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Sequential"; }

  std::size_t layer_count() const noexcept { return layers_.size(); }
  Module& layer(std::size_t i) noexcept { return *layers_[i]; }

 private:
  std::vector<ModulePtr> layers_;
};

}  // namespace dcsr::nn

#include "tensor/tensor.hpp"

#include <sstream>
#include <stdexcept>

#include "util/alloc_check.hpp"

namespace dcsr {

namespace detail {

void throw_tensor_bounds(const char* site, const Shape& shape,
                         const std::string& detail) {
  // Bounds violations fire from accessors that may be under a hot-path
  // guard; sanction the diagnostic so the real error is what propagates.
  AllocAllowScope allow;
  std::ostringstream os;
  os << site << ": " << detail << " (tensor shape " << shape << ')';
  throw TensorBoundsError(os.str());
}

}  // namespace detail

namespace {

std::size_t element_count(const Shape& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d <= 0) {
      AllocAllowScope allow;  // don't mask the diagnostic under a guard
      throw std::invalid_argument("Tensor: non-positive dimension");
    }
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

}  // namespace

Tensor::Tensor(const Shape& shape) : shape_(shape) {
  const std::size_t n = element_count(shape);  // validate before allocating
  // A Tensor constructed inside a guard is the Workspace miss path — warm-up
  // traffic by definition, so sanction it here rather than at every caller.
  AllocAllowScope allow;
  data_.assign(n, 0.0f);
}

Tensor Tensor::full(const Shape& shape, float value) {
  Tensor t(shape);
  t.fill(value);
  return t;
}

Tensor Tensor::randn(const Shape& shape, Rng& rng, float stddev) {
  Tensor t(shape);
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::reshaped(const Shape& shape) const {
  if (element_count(shape) != size())
    throw std::invalid_argument("Tensor::reshaped: element count mismatch");
  Tensor t = *this;
  t.shape_ = shape;
  return t;
}

bool Tensor::reset(const Shape& shape) {
  const std::size_t n = element_count(shape);
  const bool reused = n <= data_.capacity();
  // Within capacity the resize touches no heap (the steady state); only a
  // growing reset allocates, and that is sanctioned warm-up.
  AllocAllowScope allow;
  data_.resize(n);
  shape_ = shape;
  return reused;
}

void Tensor::fill(float v) noexcept {
  for (auto& x : data_) x = v;
}

Tensor& Tensor::add_(const Tensor& other) {
  if (!same_shape(other)) throw std::invalid_argument("Tensor::add_: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::scale_(float s) noexcept {
  for (auto& x : data_) x *= s;
  return *this;
}

Tensor& Tensor::axpy_(float alpha, const Tensor& other) {
  if (!same_shape(other)) throw std::invalid_argument("Tensor::axpy_: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
  return *this;
}

}  // namespace dcsr

#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/checked.hpp"

namespace dcsr {
class Workspace;
}

namespace dcsr::nn {

class Module;

/// Thrown by FiniteCheckGuard when a layer output contains NaN or Inf in a
/// DCSR_FINITE_CHECK build. Names the offending layer so a poisoned
/// workspace read or a numerically exploding weight is attributed at the
/// layer that produced it, not wherever the NaN finally surfaces.
class NonFiniteError : public std::runtime_error {
 public:
  NonFiniteError(std::string layer, const std::string& what)
      : std::runtime_error(what), layer_(std::move(layer)) {}
  const std::string& layer() const noexcept { return layer_; }

 private:
  std::string layer_;
};

/// Scans a layer output for NaN/Inf in checked builds and throws
/// NonFiniteError naming the layer. Constructed as the last statement of
/// every infer_into/forward implementation:
///
///   FiniteCheckGuard{*this, out};
///
/// A pure observer: it reads the tensor and never alters a value, so the
/// bitwise output pins hold with the guard active. In release builds the
/// constructor is an empty inline — the scan (and the name() call) compiles
/// out entirely.
class FiniteCheckGuard {
 public:
  FiniteCheckGuard(const Module& layer, const Tensor& out) {
#if DCSR_FINITE_CHECK
    verify(layer, out);
#else
    (void)layer;
    (void)out;
#endif
  }

  /// The scan itself (always compiled, for tests and explicit call sites):
  /// throws NonFiniteError on the first non-finite element.
  static void verify(const Module& layer, const Tensor& out);
};

/// A learnable parameter: value plus accumulated gradient of equal shape.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  std::size_t count() const noexcept { return value.size(); }
};

/// Base class for all layers.
///
/// Inference has one entry point per layer: infer_into(), const and
/// stateless. infer() is a non-virtual convenience over it. Training uses
/// explicit reverse-mode differentiation: forward() computes infer_into()'s
/// function on the same kernels, bit for bit, and caches only what the
/// layer's backward() reads; backward() consumes dL/d(output) and returns
/// dL/d(input) while accumulating dL/d(param) into each Param::grad. There is
/// no tape/graph machinery and no train/eval mode — the model topologies in
/// this project (EDSR and a small VAE) are static, and explicit backward
/// keeps every gradient path auditable and unit-testable against finite
/// differences.
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Training forward pass. The default, for layers whose backward() needs
  /// nothing from the forward pass, is infer(x).
  virtual Tensor forward(const Tensor& x) { return infer(x); }
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// The inference entry point: writes the layer's output into `out`
  /// (reshaped in place) and draws every piece of scratch from `ws`, so a
  /// warm workspace makes the call allocation-free. No layer caches, no
  /// member mutation of any kind: one model instance can serve concurrent
  /// calls from many threads (the client pipeline's frame-level parallelism
  /// depends on this). `ws` must be the calling thread's workspace (see
  /// Workspace ownership rules in tensor/workspace.hpp). backward() after
  /// inference is a logic error: nothing was cached.
  virtual void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const = 0;

  /// infer_into() into a fresh tensor, with scratch from this thread's
  /// workspace.
  Tensor infer(const Tensor& x) const;

  /// Shape of the output this layer produces for an input of shape `in`,
  /// without running it. Containers use it to size workspace checkouts with
  /// the true shapes (sizing with placeholders would mis-count hits and
  /// misses). Default: shape-preserving, which covers activations and
  /// residual blocks. Shapes are inline values (tensor/shape.hpp), so
  /// chaining out_shape calls per frame costs no heap allocation — required
  /// for infer_into to run under a DCSR_ALLOC_CHECK hot-path guard. A bad
  /// input shape throws std::invalid_argument from inside an
  /// AllocAllowScope, because containers call this under their guard.
  virtual Shape out_shape(const Shape& in) const { return in; }

  /// Learnable parameters; default none.
  virtual std::vector<Param*> params() { return {}; }

  virtual std::string name() const = 0;

  /// Clears accumulated gradients on all parameters.
  void zero_grad();

  /// Total number of learnable scalars.
  std::size_t param_count();
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace dcsr::nn

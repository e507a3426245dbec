#include "nn/module.hpp"

#include <cmath>
#include <sstream>

#include "tensor/workspace.hpp"
#include "util/alloc_check.hpp"

namespace dcsr::nn {

void FiniteCheckGuard::verify(const Module& layer, const Tensor& out) {
  const std::span<const float> vals = out.span();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (std::isfinite(vals[i])) continue;
    // The guard fires from inside hot-path regions; sanction the message
    // build so NonFiniteError is what the caller sees, not a masking
    // HotPathAllocError from the diagnostic itself.
    AllocAllowScope allow;
    const std::string name = layer.name();
    std::ostringstream os;
    os << "FiniteCheckGuard: layer " << name << " produced "
       << (std::isnan(vals[i]) ? "NaN" : "Inf") << " at element " << i
       << " of " << vals.size() << " (output shape " << out.shape()
       << ") — uninitialized/stale workspace read or numeric blow-up";
    throw NonFiniteError(name, os.str());
  }
}

Tensor Module::infer(const Tensor& x) const {
  Tensor out;
  infer_into(x, out, Workspace::local());
  return out;
}

void Module::zero_grad() {
  for (Param* p : params()) p->grad.zero();
}

std::size_t Module::param_count() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->count();
  return n;
}

}  // namespace dcsr::nn

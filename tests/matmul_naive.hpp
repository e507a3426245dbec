#pragma once

// Scalar, unblocked, single-threaded matrix products: the ground truth the
// blocked kernels in tensor/ops.hpp are property-tested against
// (Ops.BlockedKernelsMatchNaiveReferences) and the baseline
// bench_micro_kernels' BM_MatmulNaive times them against. Test and bench
// tooling only; nothing in src/ uses these. The NN and TN references
// accumulate with one written fma per k step, the chain the blocked
// kernel's tiles use, so they match it bitwise in every build type.

#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "tensor/tensor.hpp"

namespace dcsr {

/// (m x k) * (k x n) -> (m x n), ikj loop order.
inline Tensor matmul_naive(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || b.dim(0) != a.dim(1))
    throw std::invalid_argument("matmul_naive: bad operand shapes");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  const float* A = a.data();
  const float* B = b.data();
  float* C = out.data();
  // ikj loop order: streams B and C rows, friendly to the prefetcher.
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float aik = A[static_cast<std::size_t>(i) * k + kk];
      const float* Brow = B + static_cast<std::size_t>(kk) * n;
      float* Crow = C + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) Crow[j] = std::fma(aik, Brow[j], Crow[j]);
    }
  }
  return out;
}

/// aT(k x m) * b(k x n) -> (m x n).
inline Tensor matmul_tn_naive(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || b.dim(0) != a.dim(0))
    throw std::invalid_argument("matmul_tn_naive: bad operand shapes");
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  const float* A = a.data();
  const float* B = b.data();
  float* C = out.data();
  for (int kk = 0; kk < k; ++kk) {
    const float* Arow = A + static_cast<std::size_t>(kk) * m;
    const float* Brow = B + static_cast<std::size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float aik = Arow[i];
      float* Crow = C + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) Crow[j] = std::fma(aik, Brow[j], Crow[j]);
    }
  }
  return out;
}

/// a(m x k) * bT(n x k) -> (m x n), one scalar dot product per element.
inline Tensor matmul_nt_naive(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || b.dim(1) != a.dim(1))
    throw std::invalid_argument("matmul_nt_naive: bad operand shapes");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out({m, n});
  const float* A = a.data();
  const float* B = b.data();
  float* C = out.data();
  for (int i = 0; i < m; ++i) {
    const float* Arow = A + static_cast<std::size_t>(i) * k;
    float* Crow = C + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* Brow = B + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += Arow[kk] * Brow[kk];
      Crow[j] = acc;
    }
  }
  return out;
}

}  // namespace dcsr

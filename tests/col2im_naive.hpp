#pragma once

// Per-element col2im: the scatter-add tensor/ops.hpp's row-wise col2im_add
// is pinned against bit for bit (Ops.Col2imMatchesNaiveBitwise). Every
// column entry is bounds-tested on its own and added through Tensor::at in
// (c, ky, kx, y, x) order — the summation sequence col2im_add must keep.
// Test tooling only; nothing in src/ uses it.

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace dcsr {

inline void col2im_add_naive(const Tensor& cols, Tensor& out, int n, int kernel,
                             int stride, int pad) {
  const int C = out.dim(1), H = out.dim(2), W = out.dim(3);
  const int oh = conv_out_size(H, kernel, stride, pad);
  const int ow = conv_out_size(W, kernel, stride, pad);
  for (int c = 0; c < C; ++c) {
    for (int ky = 0; ky < kernel; ++ky) {
      for (int kx = 0; kx < kernel; ++kx) {
        const int row = (c * kernel + ky) * kernel + kx;
        for (int y = 0; y < oh; ++y) {
          const int sy = y * stride + ky - pad;
          if (sy < 0 || sy >= H) continue;
          for (int x = 0; x < ow; ++x) {
            const int sx = x * stride + kx - pad;
            if (sx < 0 || sx >= W) continue;
            out.at(n, c, sy, sx) += cols.at(row, y * ow + x);
          }
        }
      }
    }
  }
}

}  // namespace dcsr

#pragma once

#include "nn/module.hpp"

namespace dcsr::nn {

/// Depth-to-space rearrangement used by EDSR's upsampler: an input of shape
/// (N, C*r*r, H, W) becomes (N, C, H*r, W*r). Channel c*r*r + dy*r + dx of the
/// input maps to output pixel (h*r+dy, w*r+dx) of channel c.
class PixelShuffle final : public Module {
 public:
  explicit PixelShuffle(int scale) : scale_(scale) {}
  Tensor backward(const Tensor& grad_out) override;
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const override;
  Shape out_shape(const Shape& in) const override;
  std::string name() const override { return "PixelShuffle"; }
  int scale() const noexcept { return scale_; }

 private:
  int scale_;
};

/// Bilinear spatial upsampling by an integer factor (no parameters). The
/// linear map's backward pass is its exact adjoint. Used as the fixed
/// input skip of scale>1 EDSR models so they start as a plain upsampler and
/// learn only the residual detail.
class BilinearUpsample final : public Module {
 public:
  explicit BilinearUpsample(int scale) : scale_(scale) {}
  Tensor backward(const Tensor& grad_out) override;
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const override;
  Shape out_shape(const Shape& in) const override;
  std::string name() const override { return "BilinearUpsample"; }

 private:
  int scale_;
};

/// Nearest-neighbour spatial upsampling by an integer factor.
class UpsampleNearest final : public Module {
 public:
  explicit UpsampleNearest(int scale) : scale_(scale) {}
  Tensor backward(const Tensor& grad_out) override;
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const override;
  Shape out_shape(const Shape& in) const override;
  std::string name() const override { return "UpsampleNearest"; }

 private:
  int scale_;
};

/// Flattens NCHW to (N, C*H*W); backward restores the cached shape.
class Flatten final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const override;
  Shape out_shape(const Shape& in) const override;
  std::string name() const override { return "Flatten"; }

 private:
  Shape cached_shape_;
};

/// Reshapes (N, C*H*W) to (N, C, H, W) with fixed C/H/W; the inverse of
/// Flatten, used on the VAE decoder path.
class Reshape4 final : public Module {
 public:
  Reshape4(int c, int h, int w) : c_(c), h_(h), w_(w) {}
  Tensor backward(const Tensor& grad_out) override;
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const override;
  Shape out_shape(const Shape& in) const override;
  std::string name() const override { return "Reshape4"; }

 private:
  int c_, h_, w_;
};

}  // namespace dcsr::nn

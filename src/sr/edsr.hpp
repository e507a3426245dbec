#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "image/frame.hpp"
#include "nn/conv.hpp"
#include "nn/resblock.hpp"
#include "nn/shape_ops.hpp"
#include "util/rng.hpp"

namespace dcsr::sr {

/// Architecture of an EDSR model (Lim et al., CVPRW'17). The paper's micro
/// models sweep n_filters and n_resblocks (Table 1); dcSR-1/2/3 are 4/12/16
/// ResBlocks of 16 filters (§4).
struct EdsrConfig {
  int n_filters = 16;
  int n_resblocks = 8;

  /// Upscaling factor: 1 (in-loop quality enhancement at the decode
  /// resolution — what the client pipeline writes back into the DPB), 2 or 4.
  int scale = 1;

  /// Residual scaling inside each block; EDSR uses 0.1 for very wide models,
  /// 1.0 is fine at micro sizes.
  float res_scale = 1.0f;

  bool operator==(const EdsrConfig&) const = default;
};

/// EDSR super-resolution network:
///   head conv -> n residual blocks -> body conv (+ global skip from head)
///   -> upsampler (conv + pixel-shuffle per 2x stage; none at scale 1)
///   -> output conv (+ input skip at scale 1).
class Edsr final : public nn::Module {
 public:
  Edsr(const EdsrConfig& cfg, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  /// Stateless inference (same floats as forward(), no member mutation),
  /// all intermediates drawn from `ws` (the calling thread's workspace).
  /// Safe to call concurrently from any number of threads on one instance —
  /// the client pipeline's frame-level inference parallelism relies on it.
  /// Steady-state playback runs this with zero heap allocations once the
  /// workspace is warm.
  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) const override;

  Shape out_shape(const Shape& in) const override;

  std::vector<nn::Param*> params() override;
  std::string name() const override { return "Edsr"; }

  const EdsrConfig& config() const noexcept { return cfg_; }

  /// Multiply-accumulate based FLOP count for one inference on a lo-res
  /// input of the given size (2 FLOPs per MAC). Drives the device model's
  /// latency and energy estimates.
  std::uint64_t flops(int in_width, int in_height) const noexcept;

  /// The one way to run the model on frames: validates the `n` input frames
  /// (non-empty, consistent planes, one geometry; std::invalid_argument
  /// before any workspace checkout otherwise), packs them into one
  /// Nx3xHxW tensor, runs a single infer_into (one workspace checkout for
  /// the whole batch) and unpacks into `outs`, clamped to [0,1]. Every
  /// module processes batch items independently, so outs[i] does not depend
  /// on the rest of the batch: batching amortises dispatch and weight
  /// traffic, never changes values. const and thread-safe (no layer caches
  /// touched). With the outputs warm (same size as the last call) and this
  /// thread's workspace warmed up, the whole path runs without touching the
  /// allocator. The client's in-loop I-frame enhancement, the server's
  /// micro-model scoring and the fleet's coalesced SR requests all go
  /// through here.
  void enhance_batch_into(const FrameRGB* const* frames, FrameRGB* const* outs,
                          int n) const;

  /// One frame: a batch of 1.
  void enhance_into(const FrameRGB& frame, FrameRGB& out) const {
    const FrameRGB* in = &frame;
    FrameRGB* dst = &out;
    enhance_batch_into(&in, &dst, 1);
  }

 private:
  EdsrConfig cfg_;
  nn::Conv2d head_;
  std::vector<std::unique_ptr<nn::ResBlock>> body_;
  nn::Conv2d body_conv_;
  // Upsampler stages (empty at scale 1): conv expanding channels by r^2
  // followed by pixel shuffle.
  std::vector<std::unique_ptr<nn::Conv2d>> up_convs_;
  std::vector<std::unique_ptr<nn::PixelShuffle>> up_shuffles_;
  nn::Conv2d tail_;
  // Fixed input skip for scale > 1: with the zero-initialised tail the
  // untrained model IS a bilinear upsampler and learns only residual detail
  // (the VDSR-style trick that makes x2/x4 models trainable on CPU budgets).
  std::unique_ptr<nn::BilinearUpsample> input_upsample_;
};

/// FLOPs for a config without building the model (closed form; exact match
/// with Edsr::flops).
std::uint64_t edsr_flops(const EdsrConfig& cfg, int in_width, int in_height) noexcept;

/// Peak activation footprint in bytes of one inference on a lo-res input of
/// the given size (closed form) — the quantity the device model checks
/// against its memory budget to reproduce the paper's "NAS and NEMO cannot
/// even run for 4K resolution because of running out of memory".
std::uint64_t edsr_activation_bytes(const EdsrConfig& cfg, int in_width,
                                    int in_height) noexcept;

/// Learnable parameter count in scalars (closed form).
std::uint64_t edsr_param_count(const EdsrConfig& cfg) noexcept;

/// Size of the serialised model in bytes (what a client downloads).
std::uint64_t edsr_model_bytes(const EdsrConfig& cfg) noexcept;

}  // namespace dcsr::sr

#include "sr/edsr.hpp"

#include <stdexcept>
#include <string>

#include "tensor/workspace.hpp"
#include "util/alloc_check.hpp"

namespace dcsr::sr {

namespace {

// Upsampler plan: list of pixel-shuffle factors. Scale 1 -> none.
std::vector<int> stages_for(int scale) {
  switch (scale) {
    case 1: return {};
    case 2: return {2};
    case 3: return {3};
    case 4: return {2, 2};
    default:
      throw std::invalid_argument("Edsr: unsupported scale (use 1, 2, 3, 4)");
  }
}

}  // namespace

Edsr::Edsr(const EdsrConfig& cfg, Rng& rng)
    : cfg_(cfg),
      head_(3, cfg.n_filters, 3, rng),
      body_conv_(cfg.n_filters, cfg.n_filters, 3, rng),
      tail_(cfg.n_filters, 3, 3, rng) {
  if (cfg.n_filters <= 0 || cfg.n_resblocks <= 0)
    throw std::invalid_argument("Edsr: non-positive architecture parameter");
  body_.reserve(static_cast<std::size_t>(cfg.n_resblocks));
  for (int i = 0; i < cfg.n_resblocks; ++i)
    body_.push_back(std::make_unique<nn::ResBlock>(cfg.n_filters, rng, cfg.res_scale));
  for (const int r : stages_for(cfg.scale)) {
    up_convs_.push_back(std::make_unique<nn::Conv2d>(
        cfg.n_filters, cfg.n_filters * r * r, 3, rng));
    up_shuffles_.push_back(std::make_unique<nn::PixelShuffle>(r));
  }
  if (cfg.scale > 1)
    input_upsample_ = std::make_unique<nn::BilinearUpsample>(cfg.scale);
  // Zero-init the tail so the untrained model is already a sensible map:
  // the exact identity at scale 1 (output = x + 0), a bilinear upsampler at
  // scale > 1 (output = bilinear(x) + 0). Training can only improve on that
  // starting point, and micro models converge within a few hundred steps.
  tail_.weight().value.zero();
  tail_.bias().value.zero();
}

Tensor Edsr::forward(const Tensor& x) {
  const Tensor h = head_.forward(x);
  Tensor b = h;
  for (auto& rb : body_) b = rb->forward(b);
  Tensor s = body_conv_.forward(b);
  s.add_(h);  // global residual: stabilises training of deep bodies
  for (std::size_t i = 0; i < up_convs_.size(); ++i)
    s = up_shuffles_[i]->forward(up_convs_[i]->forward(s));
  Tensor y = tail_.forward(s);
  // Residual learning: the network predicts a correction to the (possibly
  // upsampled) input rather than the full picture.
  if (cfg_.scale == 1) {
    y.add_(x);
  } else {
    y.add_(input_upsample_->forward(x));
  }
  nn::FiniteCheckGuard{*this, y};
  return y;
}

Shape Edsr::out_shape(const Shape& in) const {
  if (in.size() != 4 || in[1] != 3) {
    AllocAllowScope allow;  // error path may run under a hot-path guard
    throw std::invalid_argument("Edsr: expected Nx3xHxW input");
  }
  return {in[0], 3, in[2] * cfg_.scale, in[3] * cfg_.scale};
}

void Edsr::infer_into(const Tensor& x, Tensor& out, Workspace& ws) const {
  // Same chain and float order as forward(), but every intermediate is a
  // workspace checkout: the head activation stays live for the global skip,
  // the residual body ping-pongs through two equal-shaped buffers (each
  // freed before the next acquire, so at most two are outstanding), and the
  // tail writes straight into `out`.
  //
  // The whole chain runs under an allocation guard: once the workspace is
  // warm, a frame must not touch the heap at all. Warm-up traffic (workspace
  // misses, buffer growth) is sanctioned at its source.
  HotPathGuard alloc_guard("sr/edsr.cpp:Edsr::infer_into");
  const Shape fshape = head_.out_shape(x.shape());
  WorkspaceTensor h = ws.acquire(fshape);
  head_.infer_into(x, *h, ws);
  WorkspaceTensor bufs[2];
  int slot = 0;
  const Tensor* cur = &*h;
  for (const auto& rb : body_) {
    bufs[slot] = WorkspaceTensor();
    WorkspaceTensor next = ws.acquire(fshape);
    rb->infer_into(*cur, *next, ws);
    bufs[slot] = std::move(next);
    cur = &*bufs[slot];
    slot ^= 1;
  }
  bufs[slot] = WorkspaceTensor();
  WorkspaceTensor s = ws.acquire(fshape);
  body_conv_.infer_into(*cur, *s, ws);
  s->add_(*h);  // global residual
  bufs[0] = WorkspaceTensor();
  bufs[1] = WorkspaceTensor();
  h = WorkspaceTensor();  // skip consumed; buffer goes home
  Shape shape = fshape;
  for (std::size_t i = 0; i < up_convs_.size(); ++i) {
    const Shape cshape = up_convs_[i]->out_shape(shape);
    WorkspaceTensor expanded = ws.acquire(cshape);
    up_convs_[i]->infer_into(*s, *expanded, ws);
    shape = up_shuffles_[i]->out_shape(cshape);
    s = WorkspaceTensor();  // conv input no longer needed
    WorkspaceTensor shuffled = ws.acquire(shape);
    up_shuffles_[i]->infer_into(*expanded, *shuffled, ws);
    s = std::move(shuffled);
  }
  tail_.infer_into(*s, out, ws);
  if (cfg_.scale == 1) {
    out.add_(x);
  } else {
    WorkspaceTensor up = ws.acquire(input_upsample_->out_shape(x.shape()));
    input_upsample_->infer_into(x, *up, ws);
    out.add_(*up);
  }
  nn::FiniteCheckGuard{*this, out};
}

Tensor Edsr::backward(const Tensor& grad_out) {
  Tensor g = tail_.backward(grad_out);
  for (std::size_t i = up_convs_.size(); i-- > 0;)
    g = up_convs_[i]->backward(up_shuffles_[i]->backward(g));
  // g is now dL/d(s) where s = body_conv(body(h)) + h.
  const Tensor dh_skip = g;
  Tensor gb = body_conv_.backward(g);
  for (std::size_t i = body_.size(); i-- > 0;) gb = body_[i]->backward(gb);
  gb.add_(dh_skip);
  Tensor gx = head_.backward(gb);
  if (cfg_.scale == 1) {
    gx.add_(grad_out);
  } else {
    gx.add_(input_upsample_->backward(grad_out));
  }
  return gx;
}

std::vector<nn::Param*> Edsr::params() {
  std::vector<nn::Param*> ps = head_.params();
  auto append = [&ps](std::vector<nn::Param*> more) {
    ps.insert(ps.end(), more.begin(), more.end());
  };
  for (auto& rb : body_) append(rb->params());
  append(body_conv_.params());
  for (auto& c : up_convs_) append(c->params());
  append(tail_.params());
  return ps;
}

void Edsr::enhance_batch_into(const FrameRGB* const* frames, FrameRGB* const* outs,
                              int n) const {
  if (n <= 0) {
    AllocAllowScope allow;  // error path may run under a caller's guard
    throw std::invalid_argument("Edsr::enhance_batch_into: empty batch");
  }
  for (int i = 0; i < n; ++i) {
    const FrameRGB& f = *frames[i];
    if (f.empty() || !f.r.same_size(f.g) || !f.r.same_size(f.b)) {
      AllocAllowScope allow;
      throw std::invalid_argument(
          "Edsr::enhance_batch_into: empty or inconsistent frame at batch "
          "index " +
          std::to_string(i));
    }
    if (f.width() != frames[0]->width() || f.height() != frames[0]->height()) {
      AllocAllowScope allow;
      throw std::invalid_argument(
          "Edsr::enhance_batch_into: mixed frame geometry at batch index " +
          std::to_string(i));
    }
  }
  // One workspace checkout for the whole batch, one infer over Nx3xHxW.
  // Both tensor endpoints come from this thread's workspace, so the only
  // buffers that persist across calls are the caller's `outs` planes — warm
  // ones are rewritten in place. Guarded after validation: a warm enhance is
  // heap-silent end to end (pack, inference, unpack).
  HotPathGuard alloc_guard("sr/edsr.cpp:Edsr::enhance_batch_into");
  Workspace& ws = Workspace::local();
  WorkspaceTensor in =
      ws.acquire({n, 3, frames[0]->height(), frames[0]->width()});
  frames_to_tensor_into(frames, n, *in);
  WorkspaceTensor y = ws.acquire(out_shape(in->shape()));
  infer_into(*in, *y, ws);
  in = WorkspaceTensor();
  tensor_to_frames_into(*y, outs);
}

std::uint64_t Edsr::flops(int in_width, int in_height) const noexcept {
  return edsr_flops(cfg_, in_width, in_height);
}

std::uint64_t edsr_flops(const EdsrConfig& cfg, int in_width, int in_height) noexcept {
  const auto f = static_cast<std::uint64_t>(cfg.n_filters);
  const auto n = static_cast<std::uint64_t>(cfg.n_resblocks);
  auto px = static_cast<std::uint64_t>(in_width) * static_cast<std::uint64_t>(in_height);
  constexpr std::uint64_t kK = 9;   // 3x3 kernels
  constexpr std::uint64_t kM = 2;   // FLOPs per MAC

  std::uint64_t fl = px * f * 3 * kK * kM;            // head
  fl += n * 2 * px * f * f * kK * kM;                 // residual blocks
  fl += px * f * f * kK * kM;                         // body conv
  // Upsampler stages run at progressively larger resolutions.
  int scale = cfg.scale;
  while (scale > 1) {
    const int r = (scale % 2 == 0) ? 2 : 3;
    fl += px * (f * r * r) * f * kK * kM;             // expand conv
    px *= static_cast<std::uint64_t>(r) * static_cast<std::uint64_t>(r);
    scale /= r;
  }
  fl += px * 3 * f * kK * kM;                         // tail conv (output res)
  return fl;
}

std::uint64_t edsr_activation_bytes(const EdsrConfig& cfg, int in_width,
                                    int in_height) noexcept {
  const auto f = static_cast<std::uint64_t>(cfg.n_filters);
  const auto in_px = static_cast<std::uint64_t>(in_width) * static_cast<std::uint64_t>(in_height);
  const auto s = static_cast<std::uint64_t>(cfg.scale);
  const auto out_px = in_px * s * s;
  // Inference working set: input + output images, two live feature maps at
  // the input resolution (ping-pong through the body), and the expanded
  // pre-shuffle map when upsampling. 4 bytes per float sample.
  std::uint64_t samples = 3 * in_px + 3 * out_px + 2 * f * in_px;
  if (cfg.scale > 1) samples += f * s * s * in_px + f * out_px;
  return 4 * samples;
}

std::uint64_t edsr_param_count(const EdsrConfig& cfg) noexcept {
  const auto f = static_cast<std::uint64_t>(cfg.n_filters);
  const auto n = static_cast<std::uint64_t>(cfg.n_resblocks);
  constexpr std::uint64_t kK = 9;
  std::uint64_t p = f * 3 * kK + f;                   // head
  p += n * 2 * (f * f * kK + f);                      // residual blocks
  p += f * f * kK + f;                                // body conv
  int scale = cfg.scale;
  while (scale > 1) {
    const int r = (scale % 2 == 0) ? 2 : 3;
    const auto rr = static_cast<std::uint64_t>(r) * static_cast<std::uint64_t>(r);
    p += (f * rr) * f * kK + f * rr;                  // expand conv
    scale /= r;
  }
  p += 3 * f * kK + 3;                                // tail conv
  return p;
}

std::uint64_t edsr_model_bytes(const EdsrConfig& cfg) noexcept {
  // Matches nn::serialized_size: 8-byte header, then per parameter tensor a
  // 1-byte rank + 4 bytes per dim (all our params are rank 2) + float32 data.
  const auto n = static_cast<std::uint64_t>(cfg.n_resblocks);
  std::uint64_t convs = 1 + 2 * n + 1 + 1;  // head + body + body_conv + tail
  int scale = cfg.scale;
  while (scale > 1) {
    ++convs;
    scale /= (scale % 2 == 0) ? 2 : 3;
  }
  const std::uint64_t tensors = convs * 2;  // weight + bias each
  return 8 + tensors * (1 + 2 * 4) + 4 * edsr_param_count(cfg);
}

}  // namespace dcsr::sr

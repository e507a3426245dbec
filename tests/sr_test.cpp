#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "codec/container.hpp"
#include "codec/frame_coding.hpp"
#include "codec/quant.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "image/resize.hpp"
#include "nn/serialize.hpp"
#include "nn/shape_ops.hpp"
#include "sr/edsr.hpp"
#include "sr/min_model.hpp"
#include "sr/model_zoo.hpp"
#include "sr/trainer.hpp"
#include "tensor/workspace.hpp"
#include "util/alloc_check.hpp"
#include "util/thread_pool.hpp"
#include "video/scene.hpp"

namespace dcsr::sr {
namespace {

FrameRGB textured_frame(int w, int h, std::uint64_t seed) {
  Rng rng(seed);
  SceneSpec spec = random_scene(rng, 0.0f, 0.8f);
  return render_scene(spec, 0.0, w, h);
}

// Degrades a frame (blur via down/up resize) to make (lo, hi) SR pairs.
TrainSample degraded_pair(const FrameRGB& hi) {
  TrainSample s;
  s.hi = hi;
  const FrameRGB small = resize(hi, hi.width() / 2, hi.height() / 2);
  s.lo = resize(small, hi.width(), hi.height());
  return s;
}

TEST(Edsr, Scale1PreservesShape) {
  Rng rng(1);
  Edsr model({.n_filters = 8, .n_resblocks = 2, .scale = 1}, rng);
  const Tensor y = model.forward(Tensor({1, 3, 16, 16}));
  EXPECT_EQ(y.shape(), (Shape{1, 3, 16, 16}));
}

TEST(Edsr, Scale2DoublesResolution) {
  Rng rng(2);
  Edsr model({.n_filters = 8, .n_resblocks = 2, .scale = 2}, rng);
  const Tensor y = model.forward(Tensor({1, 3, 8, 8}));
  EXPECT_EQ(y.shape(), (Shape{1, 3, 16, 16}));
}

TEST(Edsr, Scale4QuadruplesResolution) {
  Rng rng(3);
  Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 4}, rng);
  const Tensor y = model.forward(Tensor({1, 3, 4, 4}));
  EXPECT_EQ(y.shape(), (Shape{1, 3, 16, 16}));
}

TEST(Edsr, UntrainedScale2IsABilinearUpsampler) {
  // Zero-initialised tail + bilinear input skip: the fresh model must act
  // as plain bilinear upsampling (the trainable part contributes zero).
  Rng rng(40);
  Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 2}, rng);
  nn::BilinearUpsample up(2);
  const Tensor x = Tensor::randn({1, 3, 6, 8}, rng, 0.2f);
  const Tensor a = model.forward(x);
  const Tensor b = up.forward(x);
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(Edsr, Scale2GradCheck) {
  Rng rng(41);
  Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 2}, rng);
  // Perturb the tail away from zero so all paths carry gradient.
  for (nn::Param* p : model.params())
    for (std::size_t i = 0; i < p->value.size(); ++i)
      p->value[i] += static_cast<float>(rng.normal(0.0, 0.05));

  const Tensor x = Tensor::randn({1, 3, 5, 5}, rng, 0.3f);
  Tensor out = model.forward(x);
  const Tensor w = Tensor::randn(out.shape(), rng);
  model.zero_grad();
  const Tensor gin = model.backward(w);

  auto objective = [&](const Tensor& t) {
    const Tensor y = model.forward(t);
    double s = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) s += y[i] * w[i];
    return s;
  };
  constexpr float kEps = 1e-3f;
  for (std::size_t probe = 0; probe < 8; ++probe) {
    const std::size_t i = (probe * 37) % x.size();
    Tensor xp = x, xm = x;
    xp[i] += kEps;
    xm[i] -= kEps;
    const double numeric = (objective(xp) - objective(xm)) / (2.0 * kEps);
    EXPECT_NEAR(gin[i], numeric, 2e-2 * std::max(1.0, std::abs(numeric)));
  }
}

TEST(Edsr, UnsupportedScaleThrows) {
  Rng rng(4);
  EXPECT_THROW(Edsr({.n_filters = 4, .n_resblocks = 1, .scale = 5}, rng),
               std::invalid_argument);
  EXPECT_THROW(Edsr({.n_filters = 0, .n_resblocks = 1}, rng), std::invalid_argument);
}

TEST(Edsr, ParamCountMatchesClosedForm) {
  for (const EdsrConfig cfg : {EdsrConfig{.n_filters = 8, .n_resblocks = 3, .scale = 1},
                               EdsrConfig{.n_filters = 16, .n_resblocks = 2, .scale = 2},
                               EdsrConfig{.n_filters = 8, .n_resblocks = 1, .scale = 4},
                               EdsrConfig{.n_filters = 4, .n_resblocks = 2, .scale = 3}}) {
    Rng rng(5);
    Edsr model(cfg, rng);
    EXPECT_EQ(model.param_count(), edsr_param_count(cfg)) << config_name(cfg);
  }
}

TEST(Edsr, ModelBytesMatchSerializedSize) {
  for (const EdsrConfig cfg : {EdsrConfig{.n_filters = 8, .n_resblocks = 3, .scale = 1},
                               EdsrConfig{.n_filters = 16, .n_resblocks = 4, .scale = 2}}) {
    Rng rng(6);
    Edsr model(cfg, rng);
    EXPECT_EQ(nn::serialized_size(model), edsr_model_bytes(cfg)) << config_name(cfg);
  }
}

TEST(Edsr, FlopsScaleWithArchitecture) {
  const EdsrConfig small{.n_filters = 8, .n_resblocks = 4};
  const EdsrConfig deep{.n_filters = 8, .n_resblocks = 8};
  const EdsrConfig wide{.n_filters = 16, .n_resblocks = 4};
  EXPECT_GT(edsr_flops(deep, 64, 64), edsr_flops(small, 64, 64));
  EXPECT_GT(edsr_flops(wide, 64, 64), edsr_flops(small, 64, 64));
  // Doubling width quadruples body FLOPs (f^2 scaling).
  EXPECT_GT(edsr_flops(wide, 64, 64), 3 * edsr_flops(small, 64, 64) / 2);
  // FLOPs are linear in pixel count.
  EXPECT_EQ(edsr_flops(small, 64, 64) * 4, edsr_flops(small, 128, 128));
}

TEST(Edsr, GradCheckTinyModel) {
  Rng rng(7);
  Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 1}, rng);
  const Tensor x = Tensor::randn({1, 3, 6, 6}, rng, 0.3f);
  Tensor out = model.forward(x);
  const Tensor w = Tensor::randn(out.shape(), rng);
  model.zero_grad();
  const Tensor gin = model.backward(w);

  auto objective = [&](const Tensor& t) {
    const Tensor y = model.forward(t);
    double s = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) s += y[i] * w[i];
    return s;
  };
  constexpr float kEps = 1e-3f;
  for (std::size_t probe = 0; probe < 10; ++probe) {
    const std::size_t i = (probe * 101) % x.size();
    Tensor xp = x, xm = x;
    xp[i] += kEps;
    xm[i] -= kEps;
    const double numeric = (objective(xp) - objective(xm)) / (2.0 * kEps);
    EXPECT_NEAR(gin[i], numeric, 2e-2 * std::max(1.0, std::abs(numeric)));
  }
}

TEST(Edsr, EnhanceRoundTripsThroughFrames) {
  Rng rng(8);
  Edsr model({.n_filters = 4, .n_resblocks = 1}, rng);
  const FrameRGB f = textured_frame(16, 16, 9);
  FrameRGB out;
  model.enhance_into(f, out);
  EXPECT_EQ(out.width(), 16);
  EXPECT_EQ(out.height(), 16);
}

TEST(Trainer, MicroModelLearnsToEnhance) {
  // Train a micro enhancement model on the real dcSR task: undoing CRF-51
  // quantisation artefacts on the I frames it will later enhance (training
  // and test sets are identical by design — §A.1's memorisation argument).
  Rng rng(10);
  codec::Quantizer q(51);
  std::vector<TrainSample> pairs;
  for (const std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    TrainSample p;
    p.hi = textured_frame(48, 48, seed);
    codec::EncodedFrame ef;
    const FrameYUV recon = codec::encode_frame(
        codec::FrameType::kI, rgb_to_yuv420(p.hi), {}, q, 0, 1, ef);
    p.lo = yuv420_to_rgb(recon);
    pairs.push_back(std::move(p));
  }
  double degraded_psnr = 0.0;
  for (const auto& p : pairs) degraded_psnr += psnr(p.lo, p.hi);
  degraded_psnr /= 3.0;

  Edsr model({.n_filters = 8, .n_resblocks = 2, .scale = 1}, rng);
  TrainOptions opts;
  opts.iterations = 400;
  opts.patch_size = 24;
  opts.batch_size = 4;
  opts.lr = 3e-3;
  const TrainStats stats = train_sr_model(model, pairs, opts, rng);
  EXPECT_LT(stats.final_loss, stats.loss_curve.front());

  const double enhanced_psnr = evaluate_psnr(model, pairs);
  EXPECT_GT(enhanced_psnr, degraded_psnr + 0.7);
}

TEST(Trainer, LossCurveHasRequestedLength) {
  Rng rng(12);
  const TrainSample pair = degraded_pair(textured_frame(32, 32, 13));
  Edsr model({.n_filters = 4, .n_resblocks = 1}, rng);
  TrainOptions opts;
  opts.iterations = 15;
  opts.patch_size = 16;
  const TrainStats stats = train_sr_model(model, {pair}, opts, rng);
  EXPECT_EQ(stats.loss_curve.size(), 15u);
  EXPECT_GT(stats.train_flops, 0u);
}

TEST(Trainer, BitIdenticalAcrossThreadCounts) {
  // The deterministic-reduction contract: training must produce the exact
  // same floats no matter how many threads the pool runs. Each batch item
  // trains on its own model replica in one parallel region per step, and
  // the replicas' weight/bias gradients and the loss reduce in item order,
  // so DCSR_THREADS=1 and DCSR_THREADS=4 may differ only in wall-clock,
  // never in results. The trained model's fp32 parameter bytes are pinned
  // too, so a change to the training arithmetic (or to the build flags that
  // define it) cannot pass unnoticed.
  const int saved_threads = default_thread_count();
  struct Trained {
    TrainStats stats;
    std::vector<std::uint8_t> params;
  };
  const auto train_once = [](int threads) {
    set_default_pool_threads(threads);
    Rng rng(77);
    const TrainSample pair = degraded_pair(textured_frame(32, 32, 78));
    Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 1}, rng);
    TrainOptions opts;
    opts.iterations = 25;
    opts.patch_size = 16;
    opts.batch_size = 2;
    Trained t{train_sr_model(model, {pair}, opts, rng), {}};
    ByteWriter w;
    nn::save_params(model, w);
    t.params = w.bytes();
    return t;
  };
  const Trained serial = train_once(1);
  const Trained threaded = train_once(4);
  set_default_pool_threads(saved_threads);

  EXPECT_EQ(serial.stats.final_loss, threaded.stats.final_loss);
  ASSERT_EQ(serial.stats.loss_curve.size(), threaded.stats.loss_curve.size());
  for (std::size_t i = 0; i < serial.stats.loss_curve.size(); ++i)
    EXPECT_EQ(serial.stats.loss_curve[i], threaded.stats.loss_curve[i])
        << "iteration " << i;
  EXPECT_EQ(serial.params, threaded.params);
  EXPECT_EQ(codec::crc32(serial.params.data(), serial.params.size()),
            0x83382af3u);
}

std::vector<std::uint8_t> param_bytes(Edsr& model) {
  ByteWriter w;
  nn::save_params(model, w);
  return w.bytes();
}

TEST(Trainer, BitIdenticalAtUnalignedPatch) {
  // A 13-pixel patch is not a multiple of the 8-float vector: the conv
  // kernels' tail lanes and, in the weight gradient, lane chunks that span
  // two rows of the patch all run. The CRC was recorded with the im2col +
  // GEMM training path, so it pins the direct kernels to its arithmetic.
  const int saved_threads = default_thread_count();
  for (const int threads : {1, 4}) {
    set_default_pool_threads(threads);
    Rng rng(131);
    const TrainSample pair = degraded_pair(textured_frame(32, 32, 132));
    Edsr model({.n_filters = 8, .n_resblocks = 2, .scale = 1}, rng);
    const TrainOptions opts{.iterations = 6, .patch_size = 13, .batch_size = 2};
    train_sr_model(model, {pair}, opts, rng);
    const std::vector<std::uint8_t> bytes = param_bytes(model);
    EXPECT_EQ(codec::crc32(bytes.data(), bytes.size()), 0x27696a74u)
        << "threads=" << threads;
  }
  set_default_pool_threads(saved_threads);
}

// Three models with their own configs (the third at scale 2), pairs and Rng
// seeds: the lockstep trainer's jobs.
struct LockstepCase {
  std::vector<std::vector<TrainSample>> data;
  std::vector<Rng> rngs;
  std::vector<std::unique_ptr<Edsr>> models;

  std::vector<TrainJob> jobs() {
    std::vector<TrainJob> out;
    for (std::size_t j = 0; j < models.size(); ++j)
      out.push_back({*models[j], data[j], rngs[j]});
    return out;
  }
};

LockstepCase make_lockstep_case() {
  const EdsrConfig configs[3] = {{.n_filters = 4, .n_resblocks = 1, .scale = 1},
                                 {.n_filters = 6, .n_resblocks = 2, .scale = 1},
                                 {.n_filters = 4, .n_resblocks = 1, .scale = 2}};
  LockstepCase c;
  for (int j = 0; j < 3; ++j) {
    std::vector<TrainSample> pairs;
    for (int f = 0; f <= j; ++f) {
      const FrameRGB hi = textured_frame(32, 32, 200 + 10 * j + f);
      if (configs[j].scale == 1)
        pairs.push_back(degraded_pair(hi));
      else
        pairs.push_back({resize(hi, 16, 16), hi});
    }
    c.data.push_back(std::move(pairs));
    c.rngs.emplace_back(300 + j);
  }
  for (int j = 0; j < 3; ++j)
    c.models.push_back(std::make_unique<Edsr>(configs[j], c.rngs[j]));
  return c;
}

TEST(Trainer, LockstepMatchesPerModelBitwise) {
  // train_sr_models runs every job's batch items in one parallel region per
  // step; a job must still train to the bits it gets alone. Three jobs are
  // trained together and one by one, at 1 and 4 threads. The CRCs were
  // recorded with the trainer that predates lockstep training (batch items
  // fanned out inside each conv), so they pin its arithmetic as well.
  const std::uint32_t kCrc[3] = {0x342fc77du, 0xb2b610cau, 0x30ede5c5u};
  const TrainOptions opts{.iterations = 12, .patch_size = 12, .batch_size = 3,
                          .lr = 3e-3};
  const int saved_threads = default_thread_count();
  for (const int threads : {1, 4}) {
    set_default_pool_threads(threads);
    LockstepCase together = make_lockstep_case();
    const std::vector<TrainStats> lockstep = train_sr_models(together.jobs(), opts);
    ASSERT_EQ(lockstep.size(), 3u);
    LockstepCase alone = make_lockstep_case();
    for (std::size_t j = 0; j < 3; ++j) {
      const TrainStats single =
          train_sr_model(*alone.models[j], alone.data[j], opts, alone.rngs[j]);
      EXPECT_EQ(lockstep[j].loss_curve, single.loss_curve)
          << "threads=" << threads << " job " << j;
      EXPECT_EQ(lockstep[j].final_loss, single.final_loss);
      EXPECT_EQ(lockstep[j].train_flops, single.train_flops);
      const std::vector<std::uint8_t> bytes = param_bytes(*together.models[j]);
      EXPECT_EQ(bytes, param_bytes(*alone.models[j]))
          << "threads=" << threads << " job " << j;
      EXPECT_EQ(codec::crc32(bytes.data(), bytes.size()), kCrc[j])
          << "threads=" << threads << " job " << j;
    }
  }
  set_default_pool_threads(saved_threads);
}

// Trains a small model with `opts` and expects std::invalid_argument whose
// message names `field`.
void expect_rejected(const TrainOptions& opts, const std::string& field) {
  Rng rng(15);
  const TrainSample pair = degraded_pair(textured_frame(32, 32, 16));
  Edsr model({.n_filters = 4, .n_resblocks = 1}, rng);
  try {
    train_sr_model(model, {pair}, opts, rng);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(Trainer, RejectsNegativeIterations) {
  expect_rejected({.iterations = -1, .patch_size = 16}, "iterations");
}

TEST(Trainer, RejectsNonPositivePatchSize) {
  expect_rejected({.iterations = 2, .patch_size = 0}, "patch_size");
  expect_rejected({.iterations = 2, .patch_size = -4}, "patch_size");
}

TEST(Trainer, RejectsNonPositiveBatchSize) {
  expect_rejected({.iterations = 2, .patch_size = 16, .batch_size = 0}, "batch_size");
}

TEST(Trainer, RejectsNonFiniteOrNonPositiveLr) {
  for (const double lr : {std::nan(""), std::numeric_limits<double>::infinity(),
                          0.0, -1e-3})
    expect_rejected({.iterations = 2, .patch_size = 16, .lr = lr}, "lr");
}

TEST(Trainer, EmptyJobLeavesEveryModelUntouched) {
  // Validation covers every job before any model is touched: a job without
  // samples among good ones throws, and no model has taken a step.
  LockstepCase c = make_lockstep_case();
  c.data[1].clear();
  std::vector<std::vector<std::uint8_t>> before;
  for (auto& m : c.models) before.push_back(param_bytes(*m));
  EXPECT_THROW(train_sr_models(c.jobs(), {.iterations = 3, .patch_size = 12}),
               std::invalid_argument);
  for (std::size_t j = 0; j < c.models.size(); ++j)
    EXPECT_EQ(param_bytes(*c.models[j]), before[j]) << "model " << j;
}

TEST(Trainer, RejectsSampleWithMismatchedPlanes) {
  // fill_patch reads all three planes of lo and hi at the r plane's extent,
  // so a sample whose g or b plane is smaller is rejected, naming its job
  // and sample, before any model is touched.
  for (const int plane : {1, 2})
    for (const bool in_hi : {false, true}) {
      LockstepCase c = make_lockstep_case();
      TrainSample& s = c.data[2][1];
      FrameRGB& f = in_hi ? s.hi : s.lo;
      (plane == 1 ? f.g : f.b) = Plane(f.width() / 2, f.height());
      std::vector<std::vector<std::uint8_t>> before;
      for (auto& m : c.models) before.push_back(param_bytes(*m));
      try {
        train_sr_models(c.jobs(), {.iterations = 3, .patch_size = 12});
        ADD_FAILURE() << "accepted plane " << plane << " in_hi=" << in_hi;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("job 2, sample 1"), std::string::npos)
            << e.what();
      }
      for (std::size_t j = 0; j < c.models.size(); ++j)
        EXPECT_EQ(param_bytes(*c.models[j]), before[j]) << "model " << j;
    }
}

TEST(Edsr, InferMatchesForwardBitwise) {
  Rng rng(91);
  Edsr model({.n_filters = 6, .n_resblocks = 2, .scale = 2}, rng);
  const Tensor x = Tensor::randn({1, 3, 12, 10}, rng, 0.2f);
  const Tensor from_forward = model.forward(x);
  const Tensor from_infer = model.infer(x);
  ASSERT_EQ(from_forward.shape(), from_infer.shape());
  for (std::size_t i = 0; i < from_forward.size(); ++i)
    EXPECT_EQ(from_forward[i], from_infer[i]) << "element " << i;
}

TEST(Edsr, InferMatchesForwardBitwiseAcrossThreadCounts) {
  // The workspace-backed infer path must stay on the PR-1 contract: the same
  // floats as forward() regardless of DCSR_THREADS.
  const int saved = default_thread_count();
  Rng rng(97);
  Edsr model({.n_filters = 6, .n_resblocks = 2, .scale = 2}, rng);
  const Tensor x = Tensor::randn({1, 3, 12, 10}, rng, 0.2f);
  const Tensor ref = model.forward(x);
  for (const int threads : {1, 4}) {
    set_default_pool_threads(threads);
    const Tensor y = model.infer(x);
    ASSERT_EQ(ref.shape(), y.shape());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(ref[i], y[i]) << "threads=" << threads << " element " << i;
  }
  set_default_pool_threads(saved);
}

TEST(Edsr, SteadyStateEnhanceHasZeroWorkspaceMisses) {
  // The tentpole claim: after one warm-up frame, playback-style enhance runs
  // entirely out of this thread's workspace — every checkout is a hit, no
  // allocator traffic, and every buffer goes home between frames.
  Rng rng(95);
  const Edsr model({.n_filters = 4, .n_resblocks = 2, .scale = 1}, rng);
  const Edsr model2x({.n_filters = 4, .n_resblocks = 1, .scale = 2}, rng);
  const FrameRGB frame = textured_frame(24, 16, 96);
  FrameRGB out, out2x;
  model.enhance_into(frame, out);      // warm-up: misses allowed here only
  model2x.enhance_into(frame, out2x);  // (scale-2 exercises the upsampler)

  Workspace& ws = Workspace::local();
  const Workspace::Stats warm = ws.stats();
  for (int i = 0; i < 10; ++i) {
    model.enhance_into(frame, out);
    model2x.enhance_into(frame, out2x);
  }
  const Workspace::Stats after = ws.stats();
  EXPECT_EQ(after.misses, warm.misses)
      << "a warm workspace must serve every steady-state checkout";
  EXPECT_EQ(after.bytes_allocated, warm.bytes_allocated);
  EXPECT_EQ(after.outstanding, 0u) << "all checkouts return between frames";
  EXPECT_EQ(after.cached, warm.cached)
      << "zero-miss frames leave the free list exactly as found";
  EXPECT_GT(after.hits, warm.hits);
}

#if DCSR_ALLOC_CHECK
TEST(Edsr, SteadyStateEnhanceIsHeapSilent) {
  // Stronger than zero workspace misses: with the interposer compiled in,
  // the raw per-thread allocation counter must not move at all across warm
  // steady-state frames — not "amortised low", literally zero mallocs.
  Rng rng(95);
  const Edsr model({.n_filters = 8, .n_resblocks = 2, .scale = 1}, rng);
  const FrameRGB frame = textured_frame(24, 16, 96);
  FrameRGB out;
  // Warm everything the first frames lazily build: the thread pool, the
  // SIMD dispatch table, the workspace free list, the output plane.
  for (int i = 0; i < 3; ++i) model.enhance_into(frame, out);

  const AllocStats warm = thread_alloc_stats();
  for (int i = 0; i < 10; ++i) model.enhance_into(frame, out);
  const AllocStats after = thread_alloc_stats();
  EXPECT_EQ(after.allocs - warm.allocs, 0u)
      << "steady-state enhance must not touch the heap";
  EXPECT_EQ(after.frees - warm.frees, 0u);
  EXPECT_EQ(after.bytes - warm.bytes, 0u);
}
#endif

// Batched enhance must be bit-identical to per-frame enhance — batching is
// how the fleet driver coalesces concurrent I-frame SR requests, and it may
// amortise cost but never change a single float.
void expect_batch_enhance_matches_single(const Edsr& model, int w, int h,
                                         int n, std::uint64_t seed) {
  std::vector<FrameRGB> frames;
  for (int i = 0; i < n; ++i)
    frames.push_back(textured_frame(w, h, seed + static_cast<std::uint64_t>(i)));

  std::vector<const FrameRGB*> in_ptrs;
  std::vector<FrameRGB> batch_outs(static_cast<std::size_t>(n));
  std::vector<FrameRGB*> out_ptrs;
  for (int i = 0; i < n; ++i) {
    in_ptrs.push_back(&frames[static_cast<std::size_t>(i)]);
    out_ptrs.push_back(&batch_outs[static_cast<std::size_t>(i)]);
  }
  model.enhance_batch_into(in_ptrs.data(), out_ptrs.data(), n);

  for (int i = 0; i < n; ++i) {
    FrameRGB solo;
    model.enhance_into(frames[static_cast<std::size_t>(i)], solo);
    const Plane* a[3] = {&solo.r, &solo.g, &solo.b};
    const Plane* b[3] = {&batch_outs[static_cast<std::size_t>(i)].r,
                         &batch_outs[static_cast<std::size_t>(i)].g,
                         &batch_outs[static_cast<std::size_t>(i)].b};
    for (int c = 0; c < 3; ++c) {
      ASSERT_TRUE(a[c]->same_size(*b[c]));
      EXPECT_EQ(std::memcmp(a[c]->data(), b[c]->data(),
                            a[c]->size() * sizeof(float)),
                0)
          << "batch item " << i << " plane " << c;
    }
  }
}

TEST(Edsr, EnhanceBatchMatchesSingleBitwiseScale1) {
  Rng rng(181);
  const Edsr model({.n_filters = 4, .n_resblocks = 2, .scale = 1}, rng);
  expect_batch_enhance_matches_single(model, 20, 16, 4, 300);
}

TEST(Edsr, EnhanceBatchMatchesSingleBitwiseScale2) {
  Rng rng(182);
  const Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 2}, rng);
  expect_batch_enhance_matches_single(model, 12, 10, 3, 320);
}

TEST(Edsr, EnhanceBatchOfOneMatchesEnhanceInto) {
  Rng rng(183);
  const Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 1}, rng);
  expect_batch_enhance_matches_single(model, 16, 16, 1, 340);
}

TEST(Edsr, EnhanceBatchRejectsBadBatches) {
  Rng rng(184);
  const Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 1}, rng);
  const FrameRGB a = textured_frame(16, 16, 350);
  const FrameRGB b = textured_frame(20, 16, 351);  // mixed geometry
  FrameRGB out_a, out_b;
  const FrameRGB* ins[2] = {&a, &b};
  FrameRGB* outs[2] = {&out_a, &out_b};
  EXPECT_THROW(model.enhance_batch_into(ins, outs, 0), std::invalid_argument);
  EXPECT_THROW(model.enhance_batch_into(ins, outs, 2), std::invalid_argument);
  const FrameRGB empty;
  const FrameRGB* ins_empty[1] = {&empty};
  EXPECT_THROW(model.enhance_batch_into(ins_empty, outs, 1),
               std::invalid_argument);
}

TEST(Edsr, EnhanceIntoRejectsBadFrameBeforeWorkspaceCheckout) {
  // The one-frame entry point is a batch of 1: it inherits the batch
  // validation, which throws before the workspace is touched.
  Rng rng(186);
  const Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 1}, rng);
  FrameRGB out;
  model.enhance_into(textured_frame(16, 16, 370), out);  // warm the workspace
  FrameRGB mismatched = textured_frame(16, 16, 371);
  mismatched.g.reset(8, 16);
  const Workspace::Stats before = Workspace::local().stats();
  EXPECT_THROW(model.enhance_into(FrameRGB(), out), std::invalid_argument);
  EXPECT_THROW(model.enhance_into(mismatched, out), std::invalid_argument);
  const Workspace::Stats after = Workspace::local().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(out.width(), 16);  // the output frame is left as it was
}

#if DCSR_ALLOC_CHECK
TEST(Edsr, SteadyStateEnhanceBatchIsHeapSilent) {
  // The batched path inherits the single-frame contract: one warm workspace
  // checkout for the whole batch, zero allocator traffic per steady-state
  // batch.
  Rng rng(185);
  const Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 1}, rng);
  std::vector<FrameRGB> frames;
  for (int i = 0; i < 3; ++i)
    frames.push_back(textured_frame(16, 12, 360 + static_cast<std::uint64_t>(i)));
  std::vector<FrameRGB> outs(3);
  const FrameRGB* ins[3] = {&frames[0], &frames[1], &frames[2]};
  FrameRGB* out_ptrs[3] = {&outs[0], &outs[1], &outs[2]};
  for (int i = 0; i < 3; ++i) model.enhance_batch_into(ins, out_ptrs, 3);

  const AllocStats warm = thread_alloc_stats();
  for (int i = 0; i < 10; ++i) model.enhance_batch_into(ins, out_ptrs, 3);
  const AllocStats after = thread_alloc_stats();
  EXPECT_EQ(after.allocs - warm.allocs, 0u)
      << "steady-state batched enhance must not touch the heap";
  EXPECT_EQ(after.frees - warm.frees, 0u);
}
#endif

TEST(Edsr, EnhanceIsConstAndPreservesTrainingMode) {
  Rng rng(92);
  Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 1}, rng);
  const Edsr& view = model;  // enhance must be callable through const
  const FrameRGB f = textured_frame(16, 16, 93);
  FrameRGB out;
  view.enhance_into(f, out);
  EXPECT_EQ(out.width(), 16);
}

TEST(Edsr, ConcurrentEnhanceOnSharedModelMatchesSerial) {
  // One trained-model instance, many frames in flight: the playback loop's
  // out-of-loop (NAS) fan-out over a segment's sampled frames. Frame for
  // frame the concurrent results must be bit-identical to enhancing serially.
  Rng rng(94);
  const Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 1}, rng);
  std::vector<FrameRGB> frames;
  for (int i = 0; i < 6; ++i)
    frames.push_back(textured_frame(20, 14, 100 + static_cast<std::uint64_t>(i)));

  std::vector<FrameRGB> serial(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i)
    model.enhance_into(frames[i], serial[i]);

  const int saved_threads = default_thread_count();
  set_default_pool_threads(4);
  std::vector<FrameRGB> concurrent(frames.size());
  parallel_for_writes(
      0, static_cast<std::int64_t>(frames.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(concurrent.data() + lo, static_cast<std::size_t>(hi - lo));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          model.enhance_into(frames[static_cast<std::size_t>(i)],
                             concurrent[static_cast<std::size_t>(i)]);
      },
      "tests/sr_test.cpp:ConcurrentEnhanceOnSharedModelMatchesSerial");
  set_default_pool_threads(saved_threads);

  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Plane* a[3] = {&serial[i].r, &serial[i].g, &serial[i].b};
    const Plane* b[3] = {&concurrent[i].r, &concurrent[i].g, &concurrent[i].b};
    for (int c = 0; c < 3; ++c) {
      ASSERT_EQ(a[c]->width(), b[c]->width());
      for (int y = 0; y < a[c]->height(); ++y)
        for (int x = 0; x < a[c]->width(); ++x)
          EXPECT_EQ(a[c]->at(x, y), b[c]->at(x, y))
              << "frame " << i << " plane " << c << " @(" << x << "," << y << ")";
    }
  }
}

TEST(Trainer, TrainRestoresCallerMode) {
  Rng rng(95);
  // Failure path: a bad sample throws before any training step.
  Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 2}, rng);
  TrainSample bad;
  bad.lo = FrameRGB(16, 16);
  bad.hi = FrameRGB(16, 16);  // wrong for scale 2
  EXPECT_THROW(train_sr_model(model, {bad}, TrainOptions{}, rng),
               std::invalid_argument);

  // Success path: a short training run completes.
  TrainSample good = degraded_pair(textured_frame(32, 32, 96));
  Edsr scale1({.n_filters = 4, .n_resblocks = 1, .scale = 1}, rng);
  TrainOptions opts;
  opts.iterations = 2;
  opts.patch_size = 16;
  opts.batch_size = 1;
  train_sr_model(scale1, {good}, opts, rng);
}

TEST(Trainer, RejectsMismatchedPairs) {
  Rng rng(14);
  Edsr model({.n_filters = 4, .n_resblocks = 1, .scale = 2}, rng);
  TrainSample bad;
  bad.lo = FrameRGB(16, 16);
  bad.hi = FrameRGB(16, 16);  // should be 32x32 for scale 2
  EXPECT_THROW(train_sr_model(model, {bad}, TrainOptions{}, rng),
               std::invalid_argument);
  EXPECT_THROW(train_sr_model(model, {}, TrainOptions{}, rng), std::invalid_argument);
}

TEST(ModelZoo, NamedConfigsMatchPaper) {
  EXPECT_EQ(dcsr1_config().n_resblocks, 4);
  EXPECT_EQ(dcsr2_config().n_resblocks, 12);
  EXPECT_EQ(dcsr3_config().n_resblocks, 16);
  EXPECT_EQ(dcsr1_config().n_filters, 16);
  EXPECT_EQ(big_model_config().n_filters, 64);
}

TEST(ModelZoo, Table1AxesMatchPaper) {
  EXPECT_EQ(table1_filter_axis(), (std::vector<int>{4, 8, 16, 32, 64}));
  EXPECT_EQ(table1_resblock_axis(), (std::vector<int>{4, 8, 12, 16, 20}));
}

TEST(ModelZoo, SizeGrowsMonotonicallyAlongBothAxes) {
  // The structural property of Table 1: size increases along rows (filters)
  // and columns (ResBlocks).
  for (const int f : table1_filter_axis()) {
    double prev = 0.0;
    for (const int rb : table1_resblock_axis()) {
      const double mb = model_size_mb({.n_filters = f, .n_resblocks = rb});
      EXPECT_GT(mb, prev);
      prev = mb;
    }
  }
  for (const int rb : table1_resblock_axis()) {
    double prev = 0.0;
    for (const int f : table1_filter_axis()) {
      const double mb = model_size_mb({.n_filters = f, .n_resblocks = rb});
      EXPECT_GT(mb, prev);
      prev = mb;
    }
  }
}

TEST(ModelZoo, MicroModelsAreMuchSmallerThanBig) {
  const double big = model_size_mb(big_model_config());
  const double micro = model_size_mb(dcsr1_config());
  EXPECT_GT(big / micro, 10.0);
}

TEST(MinModel, BoundMatchesByteRatio) {
  const EdsrConfig big = big_model_config();
  const EdsrConfig micro = dcsr1_config();
  const int bound = max_micro_models(big, micro);
  EXPECT_EQ(bound, static_cast<int>(edsr_model_bytes(big) / edsr_model_bytes(micro)));
  EXPECT_GE(max_micro_models(micro, big), 1);  // never below 1
}

TEST(MinModel, SearchFindsSmallConfigOnEasyContent) {
  // On an easy enhancement task, a tiny config should already match the big
  // model within a generous tolerance, so the search must stop early.
  Rng rng(15);
  const TrainSample pair = degraded_pair(textured_frame(32, 32, 16));
  TrainOptions opts;
  opts.iterations = 20;
  opts.patch_size = 16;
  opts.batch_size = 2;
  const EdsrConfig big{.n_filters = 16, .n_resblocks = 8};
  const MinModelResult res = find_minimum_working_model(
      {pair}, big, /*big_psnr_db=*/20.0, /*tolerance_db=*/3.0, opts, rng);
  EXPECT_LT(edsr_model_bytes(res.config), edsr_model_bytes(big));
  ASSERT_FALSE(res.probes.empty());
  // Probes are visited in ascending size order.
  for (std::size_t i = 1; i < res.probes.size(); ++i)
    EXPECT_GE(res.probes[i].size_mb, res.probes[i - 1].size_mb);
}

}  // namespace
}  // namespace dcsr::sr

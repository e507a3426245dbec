// Microbenchmarks (google-benchmark) of the hot kernels under everything
// else: the 8x8 transform, the quantiser, GEMM, convolution, motion search,
// whole-frame intra coding, and the quality metrics. Useful when tuning the
// substrate — every figure bench's runtime is dominated by these.

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <thread>

#include "codec/bits.hpp"
#include "codec/block_coder.hpp"
#include "codec/dct.hpp"
#include "codec/encoder.hpp"
#include "codec/frame_coding.hpp"
#include "codec/motion.hpp"
#include "codec/quant.hpp"
#include "core/client_pipeline.hpp"
#include "core/server_pipeline.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "image/resize.hpp"
#include "nn/conv.hpp"
#include "simd/dispatch.hpp"
#include "split/segmenter.hpp"
#include "sr/edsr.hpp"
#include "sr/model_zoo.hpp"
#include "sr/trainer.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "tests/matmul_naive.hpp"
#include "util/alloc_check.hpp"
#include "util/thread_pool.hpp"
#include "video/genres.hpp"
#include "video/scene.hpp"

namespace dcsr {
namespace {

using codec::Block8;

// Pool size before any sweep touched it (reads the DCSR_THREADS/-hardware
// default on first call; every thread-sweep bench restores it afterwards).
int base_threads() {
  static const int t = default_thread_count();
  return t;
}

// Second point of the thread sweeps: all hardware threads, or 2 on a
// single-core host so the pooled code path still gets exercised.
int sweep_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<int>(hw) : 2;
}

Block8 random_block(Rng& rng) {
  Block8 b{};
  for (auto& v : b) v = static_cast<float>(rng.uniform(-0.5, 0.5));
  return b;
}

void BM_Dct8x8(benchmark::State& state) {
  Rng rng(1);
  const Block8 b = random_block(rng);
  for (auto _ : state) benchmark::DoNotOptimize(codec::dct8x8(b));
}
BENCHMARK(BM_Dct8x8);

void BM_Idct8x8(benchmark::State& state) {
  Rng rng(2);
  const Block8 b = random_block(rng);
  for (auto _ : state) benchmark::DoNotOptimize(codec::idct8x8(b));
}
BENCHMARK(BM_Idct8x8);

void BM_QuantizeBlock(benchmark::State& state) {
  Rng rng(3);
  const Block8 b = random_block(rng);
  const codec::Quantizer q(28);
  for (auto _ : state) benchmark::DoNotOptimize(q.quantize(b, true));
}
BENCHMARK(BM_QuantizeBlock);

// The decoder's per-block hot loop: fused dequantise + inverse transform.
void BM_DequantIdct8x8(benchmark::State& state) {
  Rng rng(3);
  const Block8 b = random_block(rng);
  const codec::Quantizer q(28);
  const codec::Levels8 lv = q.quantize(b, true);
  for (auto _ : state) benchmark::DoNotOptimize(q.dequantize_idct(lv, true));
}
BENCHMARK(BM_DequantIdct8x8);

// im2col of one 48x48 item of c channels (3x3, stride 1, pad 1): the
// column builder Conv2d runs for geometries the direct 3x3 kernels do not
// cover.
void BM_Im2col(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  Rng rng(5);
  const Tensor x = Tensor::randn({1, c, 48, 48}, rng);
  Tensor cols({c * 9, 48 * 48});
  for (auto _ : state) {
    im2col_into(x, 0, 3, 1, 1, cols);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col)->Arg(8)->Arg(32);

// col2im_add, the scatter at the end of Conv2d::backward for geometries
// the direct 3x3 kernels do not cover, on a 24x24 patch of c channels: one
// row-wise add pass.
void BM_Col2imAdd(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  Rng rng(5);
  const Tensor cols = Tensor::randn({c * 9, 24 * 24}, rng);
  Tensor grad({1, c, 24, 24});
  for (auto _ : state) {
    col2im_add(cols, grad, 0, 3, 1, 1);
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_Col2imAdd)->Arg(8)->Arg(16);

void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c;
  for (auto _ : state) {
    matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(matmul_naive(a, b));
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatmulNaive)->Arg(256);

// Thread sweep: same 256x256 GEMM on a pool of 1 vs all hardware threads.
void BM_MatmulThreads(benchmark::State& state) {
  const int dflt = base_threads();
  const int n = 256;
  Rng rng(4);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c;
  set_default_pool_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_default_pool_threads(dflt);
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(sweep_threads());

// Training forward of one c -> c 3x3 conv on a batch of 4 48x48 items, the
// input BM_Conv2dBackward differentiates, so the two time the same work.
void BM_Conv2dForward(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  Rng rng(5);
  nn::Conv2d conv(c, c, 3, rng);
  const Tensor x = Tensor::randn({4, c, 48, 48}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

// One c -> c 3x3 conv on a 320x192 frame (the client_playback frame size)
// through the inference path on a warm workspace: the direct conv3x3 kernel.
// gflop_per_s counts 2 flops per multiply-add of the 9c-term dot products.
void BM_Conv2dInfer(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  constexpr int kH = 192, kW = 320;
  Rng rng(5);
  const nn::Conv2d conv(c, c, 3, rng);
  const Tensor x = Tensor::randn({1, c, kH, kW}, rng);
  Tensor out;
  Workspace& ws = Workspace::local();
  conv.infer_into(x, out, ws);  // warm the workspace
  for (auto _ : state) {
    conv.infer_into(x, out, ws);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["gflop_per_s"] = benchmark::Counter(
      2e-9 * c * 9.0 * c * kH * kW,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Conv2dInfer)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Backward of BM_Conv2dForward's conv and batch: the weight, input and bias
// gradients from the padded input that forward keeps.
void BM_Conv2dBackward(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  Rng rng(5);
  nn::Conv2d conv(c, c, 3, rng);
  const Tensor x = Tensor::randn({4, c, 48, 48}, rng);
  const Tensor y = conv.forward(x);
  Tensor go = Tensor::randn(y.shape(), rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.backward(go));
}
BENCHMARK(BM_Conv2dBackward)->Arg(8)->Arg(16)->Arg(32);

// One training step of one c -> c 3x3 conv at the server's shape: forward
// and backward of a single 24x24 patch item, as each lockstep unit runs
// them (the quickstart micro models train on 24-pixel patches).
void BM_Conv2dTrainStep(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  Rng rng(5);
  nn::Conv2d conv(c, c, 3, rng);
  const Tensor x = Tensor::randn({1, c, 24, 24}, rng);
  const Tensor go = Tensor::randn({1, c, 24, 24}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x));
    benchmark::DoNotOptimize(conv.backward(go));
  }
}
BENCHMARK(BM_Conv2dTrainStep)->Arg(8)->Arg(16);

// Lockstep training of k = 2 quickstart micro models (8 filters, 2
// ResBlocks, patch 24, batch 4) for 20 steps, across thread counts: each
// step is one parallel region over the 2 x 4 (model, batch item) units.
void BM_TrainSrModelsThreads(benchmark::State& state) {
  const int dflt = base_threads();
  const auto video = make_genre_video(Genre::kNews, 5, 96, 64, 2.0, 10.0);
  std::vector<std::vector<sr::TrainSample>> data(2);
  for (int i = 0; i < 12; ++i) {
    const FrameRGB hi = video->frame(i);
    const FrameRGB small = resize(hi, hi.width() / 2, hi.height() / 2);
    data[static_cast<std::size_t>(i % 2)].push_back(
        {resize(small, hi.width(), hi.height()), hi});
  }
  Rng rngs[2] = {Rng(1), Rng(2)};
  const sr::EdsrConfig cfg{.n_filters = 8, .n_resblocks = 2, .scale = 1};
  sr::Edsr m0(cfg, rngs[0]), m1(cfg, rngs[1]);
  const std::vector<sr::TrainJob> jobs = {{m0, data[0], rngs[0]},
                                          {m1, data[1], rngs[1]}};
  const sr::TrainOptions opts{.iterations = 20, .patch_size = 24,
                              .batch_size = 4, .lr = 3e-3};
  set_default_pool_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(sr::train_sr_models(jobs, opts));
  set_default_pool_threads(dflt);
  state.SetItemsProcessed(state.iterations() * 2 * opts.iterations *
                          opts.batch_size);
}
BENCHMARK(BM_TrainSrModelsThreads)
    ->Arg(1)
    ->Arg(sweep_threads())
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_EdsrInference(benchmark::State& state) {
  Rng rng(6);
  sr::Edsr model({.n_filters = 8, .n_resblocks = 2, .scale = 1}, rng);
  const Tensor x = Tensor::randn({1, 3, 64, 48}, rng, 0.2f);
  for (auto _ : state) benchmark::DoNotOptimize(model.forward(x));
}
BENCHMARK(BM_EdsrInference);

// Steady-state playback: one persistent thread enhancing the same-sized
// frame over and over into a warm output — the shape of the client's display
// loop. After a 3-frame warm-up every workspace checkout must be a hit, so
// ws_miss_per_frame reports 0.000 and the counter doubles as a regression
// alarm for allocations sneaking back into the hot path.
void BM_EdsrEnhanceSteadyState(benchmark::State& state) {
  Rng rng(6);
  const sr::Edsr model({.n_filters = 8, .n_resblocks = 2, .scale = 1}, rng);
  const auto video = make_genre_video(Genre::kNews, 12, 96, 64, 1.0, 30.0);
  const FrameRGB frame = video->frame(0);
  FrameRGB out;
  for (int i = 0; i < 3; ++i) model.enhance_into(frame, out);  // warm up
  const Workspace::Stats before = Workspace::local().stats();
  const AllocStats alloc_before = thread_alloc_stats();
  std::int64_t frames = 0;
  for (auto _ : state) {
    model.enhance_into(frame, out);
    benchmark::DoNotOptimize(out);
    ++frames;
  }
  const AllocStats alloc_after = thread_alloc_stats();
  const Workspace::Stats after = Workspace::local().stats();
  state.SetItemsProcessed(frames);
  const double n = frames > 0 ? static_cast<double>(frames) : 1.0;
  state.counters["ws_miss_per_frame"] =
      static_cast<double>(after.misses - before.misses) / n;
  state.counters["ws_hit_per_frame"] =
      static_cast<double>(after.hits - before.hits) / n;
  // Raw operator-new calls per steady-state frame — 0 by contract. Only a
  // DCSR_ALLOC_CHECK build carries the interposer; without it the counter
  // reads 0 vacuously, and the checked leg is what enforces the pin.
  state.counters["allocs_per_frame"] =
      static_cast<double>(alloc_after.allocs - alloc_before.allocs) / n;
}
BENCHMARK(BM_EdsrEnhanceSteadyState);

// Whole-frame enhancement through the stateless infer path, one shared model
// across the pool, swept over pool sizes — the playback loop's out-of-loop
// (NAS) fan-out in isolation. 8 frames per iteration, each a
// parallel_for_writes task that claims its own output frame slot.
void BM_EdsrEnhanceThreads(benchmark::State& state) {
  const int dflt = base_threads();
  Rng rng(6);
  const sr::Edsr model({.n_filters = 8, .n_resblocks = 2, .scale = 1}, rng);
  const auto video = make_genre_video(Genre::kNews, 12, 96, 64, 1.0, 30.0);
  std::vector<FrameRGB> frames;
  for (int i = 0; i < 8; ++i) frames.push_back(video->frame(i));
  std::vector<FrameRGB> enhanced(frames.size());
  set_default_pool_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    parallel_for_writes(
        0, static_cast<std::int64_t>(frames.size()), 1,
        [&](std::int64_t lo, std::int64_t hi) {
          return span_of(enhanced.data() + lo, static_cast<std::size_t>(hi - lo));
        },
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i)
            model.enhance_into(frames[static_cast<std::size_t>(i)],
                               enhanced[static_cast<std::size_t>(i)]);
        },
        "bench/bench_micro_kernels.cpp:BM_EdsrEnhanceThreads");
    benchmark::DoNotOptimize(enhanced.data());
  }
  set_default_pool_threads(dflt);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frames.size()));
}
BENCHMARK(BM_EdsrEnhanceThreads)->Arg(1)->Arg(sweep_threads());

// Paper scale: dcSR-1 (16 filters, 4 ResBlocks, Table 1) enhancing one
// 1280x720 I frame on a warm workspace, the client's in-loop cost per I
// frame, across pool sizes. Compare with bench_fig8_inference's analytic
// Jetson figure.
void BM_Dcsr1Enhance720p(benchmark::State& state) {
  const int dflt = base_threads();
  Rng rng(6);
  const sr::Edsr model(sr::dcsr1_config(), rng);
  const auto video = make_genre_video(Genre::kNews, 12, 1280, 720, 1.0, 30.0);
  const FrameRGB frame = video->frame(0);
  FrameRGB out;
  set_default_pool_threads(static_cast<int>(state.range(0)));
  model.enhance_into(frame, out);  // warm up
  for (auto _ : state) {
    model.enhance_into(frame, out);
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
  }
  set_default_pool_threads(dflt);
}
BENCHMARK(BM_Dcsr1Enhance720p)
    ->Arg(1)
    ->Arg(sweep_threads())
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Paper scale decode: one 1280x720 closed GOP (the server's CRF 51 and
// intra period 12, so I + 11 P) coded as 4 macroblock-row slices, decoded
// into warm frames across pool sizes — the codec half of the client's
// per-segment budget next to BM_Dcsr1Enhance720p's SR half.
void BM_Decode720p(benchmark::State& state) {
  const int dflt = base_threads();
  static const auto video =
      make_genre_video(Genre::kNews, 12, 1280, 720, 12.0 / 30.0, 30.0);
  static const codec::EncodedVideo encoded = [] {
    codec::CodecConfig cfg = core::ServerConfig{}.codec;
    cfg.slices = 4;
    return codec::Encoder(cfg).encode(*video, {{0, video->frame_count()}});
  }();
  codec::Decoder dec(encoded);
  std::vector<FrameYUV> display;
  dec.decode_segment_into(encoded.segments[0], display);  // warm scratch
  set_default_pool_threads(static_cast<int>(state.range(0)));
  std::int64_t frames = 0;
  for (auto _ : state) {
    dec.decode_segment_into(encoded.segments[0], display);
    benchmark::DoNotOptimize(display.data());
    frames += static_cast<std::int64_t>(display.size());
  }
  set_default_pool_threads(dflt);
  state.SetItemsProcessed(frames);
}
BENCHMARK(BM_Decode720p)
    ->Arg(1)
    ->Arg(sweep_threads())
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// End-to-end NAS playback (decode + concurrent out-of-loop SR + metrics) on
// a quickstart-sized workload, across pool sizes.
void BM_PlayNasThreads(benchmark::State& state) {
  const int dflt = base_threads();
  Rng rng(6);
  static const auto video =
      make_genre_video(Genre::kNews, 5, 96, 64, 6.0, 10.0);
  static const codec::EncodedVideo encoded = [] {
    codec::CodecConfig cfg;
    const codec::Encoder enc(cfg);
    return enc.encode(*video, {{0, 30}, {30, 30}});
  }();
  const sr::Edsr model({.n_filters = 8, .n_resblocks = 2, .scale = 1}, rng);
  core::PlaybackOptions opts;
  opts.nas_eval_stride = 3;
  set_default_pool_threads(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::play_nas(encoded, model, *video, opts));
  set_default_pool_threads(dflt);
}
BENCHMARK(BM_PlayNasThreads)->Arg(1)->Arg(sweep_threads());

// Slice-parallel frame decode across pool sizes. The same segment is encoded
// once at the sliced format's default experiment shape (4 MB-row slices) and
// decoded into warm frames over and over; slices are the parallel axis, so
// the Arg(1) row is the serial baseline and the sweep row is the speedup the
// decode-smoke leg proves bit-identical.
void BM_DecodeFrameThreads(benchmark::State& state) {
  const int dflt = base_threads();
  static const auto video =
      make_genre_video(Genre::kSports, 13, 192, 128, 2.0, 30.0);
  static const codec::EncodedVideo encoded = [] {
    codec::CodecConfig cfg;
    cfg.crf = 30;
    cfg.slices = 4;
    return codec::Encoder(cfg).encode(*video, {{0, 60}});
  }();
  codec::Decoder dec(encoded);
  std::vector<FrameYUV> display;
  dec.decode_segment_into(encoded.segments[0], display);  // warm scratch
  set_default_pool_threads(static_cast<int>(state.range(0)));
  std::int64_t frames = 0;
  for (auto _ : state) {
    dec.decode_segment_into(encoded.segments[0], display);
    benchmark::DoNotOptimize(display.data());
    frames += static_cast<std::int64_t>(display.size());
  }
  set_default_pool_threads(dflt);
  state.SetItemsProcessed(frames);
}
BENCHMARK(BM_DecodeFrameThreads)->Arg(1)->Arg(sweep_threads());

// Whole-video encode of the quickstart video (96x64, 600 frames) with the
// server pipeline's codec settings, across pool sizes. Closed GOPs — one per
// I frame, every 12 frames — are the parallel axis, each rendering and
// converting its own source frames.
void BM_EncodeVideoThreads(benchmark::State& state) {
  const int dflt = base_threads();
  static const auto video = make_genre_video(Genre::kNews, 5, 96, 64, 60.0, 10.0);
  static const core::ServerConfig cfg;
  static const auto segments = split::variable_segments(*video, cfg.segmenter);
  set_default_pool_threads(static_cast<int>(state.range(0)));
  std::int64_t frames = 0;
  for (auto _ : state) {
    const codec::EncodedVideo ev = codec::Encoder(cfg.codec).encode(*video, segments);
    benchmark::DoNotOptimize(ev.segments.data());
    frames += ev.frame_count();
  }
  set_default_pool_threads(dflt);
  state.SetItemsProcessed(frames);
}
BENCHMARK(BM_EncodeVideoThreads)->Arg(1)->Arg(sweep_threads())->Unit(benchmark::kMillisecond);

// Batched SR through enhance_batch_into: one workspace checkout and one
// dispatch per batch instead of per frame. items_processed counts frames, so
// the per-item time directly compares against batch=1 — the gap is the
// amortisation the fleet's cross-session batching banks on.
void BM_EdsrEnhanceBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  const sr::Edsr model({.n_filters = 8, .n_resblocks = 2, .scale = 1}, rng);
  const auto video = make_genre_video(Genre::kNews, 12, 96, 64, 1.0, 30.0);
  std::vector<FrameRGB> frames, outs(static_cast<std::size_t>(n));
  std::vector<const FrameRGB*> in_ptrs;
  std::vector<FrameRGB*> out_ptrs;
  for (int i = 0; i < n; ++i) frames.push_back(video->frame(i));
  for (int i = 0; i < n; ++i) {
    in_ptrs.push_back(&frames[static_cast<std::size_t>(i)]);
    out_ptrs.push_back(&outs[static_cast<std::size_t>(i)]);
  }
  model.enhance_batch_into(in_ptrs.data(), out_ptrs.data(), n);  // warm up
  std::int64_t done = 0;
  for (auto _ : state) {
    model.enhance_batch_into(in_ptrs.data(), out_ptrs.data(), n);
    benchmark::DoNotOptimize(outs.data());
    done += n;
  }
  state.SetItemsProcessed(done);
}
BENCHMARK(BM_EdsrEnhanceBatch)->Arg(1)->Arg(4)->Arg(8);

void BM_MotionSearch(benchmark::State& state) {
  const auto video = make_genre_video(Genre::kSports, 7, 128, 80, 1.0, 30.0);
  const FrameYUV a = rgb_to_yuv420(video->frame(0));
  const FrameYUV b = rgb_to_yuv420(video->frame(5));
  for (auto _ : state)
    benchmark::DoNotOptimize(codec::motion_search(b.y, a.y, 48, 32, 16, 8));
}
BENCHMARK(BM_MotionSearch);

void BM_IntraFrameEncode(benchmark::State& state) {
  const auto video = make_genre_video(Genre::kNews, 8, 96, 64, 1.0, 30.0);
  const FrameYUV f = rgb_to_yuv420(video->frame(0));
  const codec::Quantizer q(28);
  for (auto _ : state) {
    codec::EncodedFrame ef;
    benchmark::DoNotOptimize(
        codec::encode_frame(codec::FrameType::kI, f, {}, q, 0, 1, ef));
  }
}
BENCHMARK(BM_IntraFrameEncode);

void BM_Psnr(benchmark::State& state) {
  const auto video = make_genre_video(Genre::kGaming, 9, 96, 64, 1.0, 30.0);
  const FrameRGB a = video->frame(0);
  const FrameRGB b = video->frame(3);
  for (auto _ : state) benchmark::DoNotOptimize(psnr(a, b));
}
BENCHMARK(BM_Psnr);

void BM_Ssim(benchmark::State& state) {
  const auto video = make_genre_video(Genre::kGaming, 10, 96, 64, 1.0, 30.0);
  const FrameRGB a = video->frame(0);
  const FrameRGB b = video->frame(3);
  for (auto _ : state) benchmark::DoNotOptimize(ssim(a, b));
}
BENCHMARK(BM_Ssim);

// One frame of a scene with background `bg` (sprites as random_scene draws
// them) at range(0) x range(1): the ground-truth render behind every
// quality metric, the encoder's input and the server's training pairs.
void BM_RenderScene(benchmark::State& state, Background bg) {
  Rng rng(12);
  SceneSpec spec = random_scene(rng, 1.0f, 0.5f);
  spec.background = bg;
  const int w = static_cast<int>(state.range(0));
  const int h = static_cast<int>(state.range(1));
  for (auto _ : state) benchmark::DoNotOptimize(render_scene(spec, 1.0, w, h));
}
BENCHMARK_CAPTURE(BM_RenderScene, gradient, Background::kGradient)
    ->Args({320, 192})->Args({1280, 720});
BENCHMARK_CAPTURE(BM_RenderScene, texture, Background::kTexture)
    ->Args({320, 192})->Args({1280, 720});
BENCHMARK_CAPTURE(BM_RenderScene, stripes, Background::kStripes)
    ->Args({320, 192})->Args({1280, 720});
BENCHMARK_CAPTURE(BM_RenderScene, checkerboard, Background::kCheckerboard)
    ->Args({320, 192})->Args({1280, 720});

void BM_ResizeBicubic(benchmark::State& state) {
  Plane p(96, 64);
  for (auto _ : state) benchmark::DoNotOptimize(resize_bicubic(p, 192, 128));
}
BENCHMARK(BM_ResizeBicubic);

void BM_YuvRoundTrip(benchmark::State& state) {
  const auto video = make_genre_video(Genre::kAnimation, 11, 96, 64, 1.0, 30.0);
  const FrameRGB f = video->frame(0);
  for (auto _ : state)
    benchmark::DoNotOptimize(yuv420_to_rgb(rgb_to_yuv420(f)));
}
BENCHMARK(BM_YuvRoundTrip);

}  // namespace
}  // namespace dcsr

// Custom main instead of BENCHMARK_MAIN(): report the SIMD dispatch decision
// up front and stamp it (plus this binary's build type) into the JSON
// context, so a recorded BENCH_kernels.json is attributable to a backend and
// a non-Release run is visible in the artifact itself.
int main(int argc, char** argv) {
  std::string dispatch;
  try {
    dispatch = dcsr::simd::report();
  } catch (const dcsr::simd::SimdDispatchError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << dispatch << "\n";
  benchmark::AddCustomContext(
      "dcsr_simd_backend",
      dcsr::simd::backend_name(dcsr::simd::active_backend()));
  benchmark::AddCustomContext("dcsr_simd_dispatch", dispatch);
#ifdef DCSR_BENCH_BUILD_TYPE
  benchmark::AddCustomContext("dcsr_build_type", DCSR_BENCH_BUILD_TYPE);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#include <gtest/gtest.h>

#include "device/latency.hpp"
#include "device/power.hpp"
#include "device/profiles.hpp"
#include "sr/model_zoo.hpp"

namespace dcsr::device {
namespace {

TEST(Profiles, OrderedByCapability) {
  EXPECT_LT(jetson_xavier_nx().effective_tflops, laptop_gtx1060().effective_tflops);
  EXPECT_LT(laptop_gtx1060().effective_tflops, desktop_rtx2070().effective_tflops);
  EXPECT_LT(jetson_xavier_nx().mem_budget_bytes, desktop_rtx2070().mem_budget_bytes);
}

TEST(Profiles, ResolutionPresets) {
  EXPECT_EQ(res_720p().width, 1280);
  EXPECT_EQ(res_1080p().height, 1080);
  EXPECT_NEAR(res_4k().megapixels(), 8.29, 0.01);
}

TEST(Latency, InferenceScalesWithModelAndResolution) {
  const DeviceProfile dev = jetson_xavier_nx();
  const double small_720 = inference_seconds(dev, sr::dcsr1_config(), res_720p());
  const double big_720 = inference_seconds(dev, sr::big_model_config(), res_720p());
  const double small_4k = inference_seconds(dev, sr::dcsr1_config(), res_4k());
  EXPECT_GT(big_720, small_720 * 10);
  EXPECT_GT(small_4k, small_720 * 4);  // ~9x pixels
}

TEST(Latency, FasterDeviceInfersFaster) {
  const auto cfg = sr::dcsr3_config();
  EXPECT_GT(inference_seconds(jetson_xavier_nx(), cfg, res_1080p()),
            inference_seconds(desktop_rtx2070(), cfg, res_1080p()));
}

TEST(Latency, BigModelOomsAt4kOnJetsonOnly) {
  // The paper's Fig. 8(c) result: "NAS and NEMO cannot even run for 4K
  // resolution because of running out of memory" on the mobile device,
  // while Fig. 12 shows them running at 4K on laptop/desktop.
  const auto big = sr::big_model_config();
  EXPECT_FALSE(fits_memory(jetson_xavier_nx(), big, res_4k()));
  EXPECT_TRUE(fits_memory(laptop_gtx1060(), big, res_4k()));
  EXPECT_TRUE(fits_memory(desktop_rtx2070(), big, res_4k()));
  // Micro models fit everywhere.
  EXPECT_TRUE(fits_memory(jetson_xavier_nx(), sr::dcsr3_config(), res_4k()));
  // And the big model fits the Jetson at lower resolutions.
  EXPECT_TRUE(fits_memory(jetson_xavier_nx(), big, res_1080p()));
}

TEST(Latency, SegmentFpsReproducesFig8Shape) {
  const DeviceProfile jetson = jetson_xavier_nx();
  constexpr int kSegFrames = 120;  // 4 s at 30 fps

  // dcSR-1 meets 30 FPS at every resolution with 1 inference per segment.
  for (const Resolution& res : {res_720p(), res_1080p(), res_4k()}) {
    const auto t = segment_fps(jetson, sr::dcsr1_config(), res, kSegFrames, 1);
    EXPECT_FALSE(t.oom) << res.name;
    EXPECT_GE(t.fps, 30.0) << res.name;
  }
  // NEMO (big model, I frames only): ~30 FPS at 720p, clearly below at 1080p.
  const auto nemo_720 = segment_fps(jetson, sr::big_model_config(), res_720p(), kSegFrames, 1);
  EXPECT_GE(nemo_720.fps, 28.0);
  const auto nemo_1080 = segment_fps(jetson, sr::big_model_config(), res_1080p(), kSegFrames, 1);
  EXPECT_LT(nemo_1080.fps, 30.0);
  // NAS (big model, every frame): under 1 FPS.
  const auto nas_720 = segment_fps(jetson, sr::big_model_config(), res_720p(),
                                   kSegFrames, kSegFrames);
  EXPECT_LT(nas_720.fps, 1.0);
  // Big model at 4K: OOM.
  EXPECT_TRUE(segment_fps(jetson, sr::big_model_config(), res_4k(), kSegFrames, 1).oom);
}

TEST(Latency, FpsDecreasesWithInferencesPerSegment) {
  const DeviceProfile jetson = jetson_xavier_nx();
  double prev = 1e9;
  for (int n = 1; n <= 5; ++n) {
    const auto t = segment_fps(jetson, sr::dcsr2_config(), res_1080p(), 120, n);
    EXPECT_LT(t.fps, prev);
    prev = t.fps;
  }
}

TEST(Latency, LaptopAndDesktopRunDcsrAt4k) {
  // Fig. 12: dcSR meets 30 FPS regardless of device and inference count.
  for (const DeviceProfile& dev : {laptop_gtx1060(), desktop_rtx2070()}) {
    for (int n = 2; n <= 10; n += 2) {
      const auto t = segment_fps(dev, sr::dcsr3_config(), res_4k(), 120, n);
      EXPECT_FALSE(t.oom);
      EXPECT_GE(t.fps, 30.0) << dev.name << " n=" << n;
    }
  }
}

TEST(Latency, MemoryModelMatchesEdsrActivationBytes) {
  // fits_memory() charges the activations of sr::edsr_activation_bytes plus
  // the weights: a budget of exactly that many bytes fits, one byte less
  // does not.
  for (const sr::EdsrConfig cfg :
       {sr::dcsr1_config(), sr::dcsr3_config(),
        sr::EdsrConfig{.n_filters = 8, .n_resblocks = 2, .scale = 2}}) {
    const Resolution res = res_720p();
    const std::uint64_t expect =
        sr::edsr_activation_bytes(cfg, res.width, res.height) +
        sr::edsr_model_bytes(cfg);
    DeviceProfile dev = jetson_xavier_nx();
    dev.mem_budget_bytes = static_cast<double>(expect);
    EXPECT_TRUE(fits_memory(dev, cfg, res)) << sr::config_name(cfg);
    dev.mem_budget_bytes = static_cast<double>(expect - 1);
    EXPECT_FALSE(fits_memory(dev, cfg, res)) << sr::config_name(cfg);
  }
  // A 2x2 input at x2, 8 filters: 3*4 + 3*16 image samples, 2*8*4 body
  // samples, 8*4*4 pre-shuffle and 8*16 post-shuffle samples, 4 bytes each.
  EXPECT_EQ(sr::edsr_activation_bytes(
                {.n_filters = 8, .n_resblocks = 2, .scale = 2}, 2, 2),
            4u * (12 + 48 + 64 + 128 + 128));
}

TEST(Latency, OverheadIncludedInInference) {
  // inference_seconds must include the fixed per-inference overhead: a
  // hypothetical zero-FLOP model still costs the overhead.
  DeviceProfile dev = jetson_xavier_nx();
  const double with = inference_seconds(dev, sr::dcsr1_config(), res_720p());
  dev.inference_overhead_ms = 0.0;
  const double without = inference_seconds(dev, sr::dcsr1_config(), res_720p());
  EXPECT_NEAR(with - without, 0.05, 1e-9);
}

TEST(Latency, DecodeTimeLinearInPixels) {
  const DeviceProfile dev = laptop_gtx1060();
  const double d720 = decode_seconds(dev, res_720p());
  const double d4k = decode_seconds(dev, res_4k());
  EXPECT_NEAR(d4k / d720, res_4k().megapixels() / res_720p().megapixels(), 1e-9);
}

TEST(Power, NasSaturatesGpu) {
  const DeviceProfile jetson = jetson_xavier_nx();
  PowerConfig cfg;
  cfg.model = sr::big_model_config();
  cfg.resolution = res_1080p();
  cfg.schedule = InferenceSchedule::kEveryFrame;
  const PowerTrace trace = simulate_power(jetson, cfg, 60.0);
  // Sustained draw: every sample at the busy ceiling.
  const double ceiling = jetson.idle_watts + jetson.decode_watts + jetson.compute_watts;
  for (const double w : trace.watts) EXPECT_NEAR(w, ceiling, 1e-6);
}

TEST(Power, DcsrSpikesPeriodically) {
  const DeviceProfile jetson = jetson_xavier_nx();
  PowerConfig cfg;
  cfg.model = sr::dcsr1_config();
  cfg.resolution = res_1080p();
  cfg.schedule = InferenceSchedule::kPerSegment;
  cfg.segment_seconds = 4.0;
  const PowerTrace trace = simulate_power(jetson, cfg, 60.0);
  const double baseline = jetson.idle_watts + jetson.decode_watts;
  int spikes = 0, quiet = 0;
  for (const double w : trace.watts) {
    if (w > baseline + 0.05) {
      ++spikes;
    } else {
      ++quiet;
    }
  }
  // Inference bursts are short, so most samples sit at the baseline.
  EXPECT_GT(spikes, 5);
  EXPECT_GT(quiet, spikes);
  EXPECT_LT(trace.peak_watts, baseline + jetson.compute_watts + 1e-9);
}

TEST(Power, EnergyOrderingDcsrNemoNas) {
  // The paper's §4: dcSR consumes the least energy, NAS the most. Measured
  // at 720p, where NEMO's per-segment bursts still fit inside a segment —
  // at 1080p NEMO's big-model inference saturates the GPU just like NAS.
  const DeviceProfile jetson = jetson_xavier_nx();
  const Resolution res = res_720p();

  PowerConfig dcsr{.model = sr::dcsr1_config(), .resolution = res,
                   .schedule = InferenceSchedule::kPerSegment};
  PowerConfig nemo{.model = sr::big_model_config(), .resolution = res,
                   .schedule = InferenceSchedule::kPerSegment};
  PowerConfig nas{.model = sr::big_model_config(), .resolution = res,
                  .schedule = InferenceSchedule::kEveryFrame};

  const double e_dcsr = simulate_power(jetson, dcsr, 300.0).total_joules;
  const double e_nemo = simulate_power(jetson, nemo, 300.0).total_joules;
  const double e_nas = simulate_power(jetson, nas, 300.0).total_joules;
  EXPECT_LT(e_dcsr, e_nemo);
  EXPECT_LT(e_nemo, e_nas);
}

TEST(Power, TraceLengthMatchesDuration) {
  const PowerTrace t = simulate_power(jetson_xavier_nx(),
                                      {.model = sr::dcsr1_config(),
                                       .resolution = res_720p()},
                                      10.0);
  EXPECT_EQ(t.watts.size(), 10u);
  EXPECT_GT(t.mean_watts, 0.0);
}

}  // namespace
}  // namespace dcsr::device

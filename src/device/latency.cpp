#include "device/latency.hpp"

namespace dcsr::device {

double inference_seconds(const DeviceProfile& dev, const sr::EdsrConfig& cfg,
                         const Resolution& res) noexcept {
  const double flops =
      static_cast<double>(sr::edsr_flops(cfg, res.width, res.height));
  return flops / (dev.effective_tflops * 1e12) +
         dev.inference_overhead_ms / 1e3;
}

double decode_seconds(const DeviceProfile& dev, const Resolution& res) noexcept {
  return res.megapixels() * dev.decode_ms_per_mpix / 1e3;
}

bool fits_memory(const DeviceProfile& dev, const sr::EdsrConfig& cfg,
                 const Resolution& res) noexcept {
  const std::uint64_t bytes =
      sr::edsr_activation_bytes(cfg, res.width, res.height) +
      sr::edsr_model_bytes(cfg);
  return static_cast<double>(bytes) <= dev.mem_budget_bytes;
}

SegmentThroughput segment_fps(const DeviceProfile& dev, const sr::EdsrConfig& cfg,
                              const Resolution& res, int frames_per_segment,
                              int inferences_per_segment) noexcept {
  SegmentThroughput out;
  if (!fits_memory(dev, cfg, res)) {
    out.oom = true;
    return out;
  }
  out.decode_s = decode_seconds(dev, res) * frames_per_segment;
  out.inference_s =
      inference_seconds(dev, cfg, res) * inferences_per_segment;
  const double total = out.decode_s + out.inference_s;
  out.fps = total > 0.0 ? static_cast<double>(frames_per_segment) / total : 0.0;
  return out;
}

}  // namespace dcsr::device

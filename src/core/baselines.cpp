#include "core/baselines.hpp"

#include <algorithm>
#include <stdexcept>

#include "codec/decoder.hpp"
#include "image/convert.hpp"

namespace dcsr::core {

std::vector<sr::TrainSample> collect_whole_video_pairs(
    const VideoSource& video, const codec::EncodedVideo& encoded,
    int training_frames) {
  const int total = encoded.frame_count();
  if (training_frames <= 0 || total <= 0)
    throw std::invalid_argument("collect_whole_video_pairs: bad arguments");
  const int stride = std::max(1, total / training_frames);

  std::vector<sr::TrainSample> pairs;
  codec::Decoder decoder(encoded);
  std::vector<FrameYUV> frames;
  int frame_base = 0;
  for (const auto& seg : encoded.segments) {
    decoder.decode_segment_into(seg, frames);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const int display = frame_base + static_cast<int>(i);
      if (display % stride != 0 ||
          pairs.size() >= static_cast<std::size_t>(training_frames))
        continue;
      sr::TrainSample pair;
      pair.lo = yuv420_to_rgb(frames[i]);
      pair.hi = video.frame(display);
      pairs.push_back(std::move(pair));
    }
    frame_base += static_cast<int>(frames.size());
  }
  return pairs;
}

BaselineResult train_big_model(const VideoSource& video,
                               const codec::EncodedVideo& encoded,
                               const BaselineConfig& cfg) {
  const auto pairs =
      collect_whole_video_pairs(video, encoded, cfg.training_frames);

  Rng rng(cfg.seed);
  BaselineResult result;
  result.model = std::make_unique<sr::Edsr>(cfg.big, rng);
  const sr::TrainStats stats =
      sr::train_sr_model(*result.model, pairs, cfg.training, rng);
  result.train_flops = stats.train_flops;
  result.model_bytes = sr::edsr_model_bytes(cfg.big);
  return result;
}

}  // namespace dcsr::core

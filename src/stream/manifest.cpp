#include "stream/manifest.hpp"

#include <stdexcept>

namespace dcsr::stream {

std::uint64_t Manifest::total_video_bytes() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : segments) n += s.video_bytes;
  return n;
}

std::uint64_t Manifest::total_model_bytes_unique() const noexcept {
  std::uint64_t n = 0;
  for (const auto b : model_bytes) n += b;
  return n;
}

Manifest make_manifest(const codec::EncodedVideo& video,
                       const std::vector<int>& labels,
                       std::vector<std::uint64_t> model_bytes) {
  if (labels.size() != video.segments.size())
    throw std::invalid_argument("make_manifest: one label per segment required");
  Manifest m;
  m.model_bytes = std::move(model_bytes);
  for (std::size_t i = 0; i < video.segments.size(); ++i) {
    const int label = labels[i];
    if (label != kNoModel &&
        (label < 0 || static_cast<std::size_t>(label) >= m.model_bytes.size()))
      throw std::invalid_argument("make_manifest: label out of range");
    m.segments.push_back({static_cast<int>(i), video.segments[i].frame_count(),
                          video.segments[i].size_bytes(), label});
  }
  return m;
}

Manifest make_single_model_manifest(const codec::EncodedVideo& video,
                                    std::uint64_t model_size_bytes) {
  std::vector<int> labels(video.segments.size(), 0);
  return make_manifest(video, labels, {model_size_bytes});
}

Manifest make_plain_manifest(const codec::EncodedVideo& video) {
  std::vector<int> labels(video.segments.size(), kNoModel);
  return make_manifest(video, labels, {});
}

}  // namespace dcsr::stream

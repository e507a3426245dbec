#include "split/segmenter.hpp"

#include <stdexcept>

namespace dcsr::split {

std::vector<codec::SegmentPlan> variable_segments(const VideoSource& video,
                                                  const SegmenterConfig& cfg) {
  const int total = video.frame_count();
  if (total <= 0) throw std::invalid_argument("variable_segments: empty video");
  // The split loop below advances by max_segment_frames per plan.
  if (cfg.max_segment_frames < 1)
    throw std::invalid_argument("variable_segments: max_segment_frames < 1");

  std::vector<int> bounds = detect_shots(video, cfg.detector);
  bounds.push_back(total);  // sentinel

  // Merge too-short segments into the previous one.
  std::vector<int> merged{0};
  for (std::size_t i = 1; i + 1 < bounds.size(); ++i) {
    if (bounds[i] - merged.back() >= cfg.min_segment_frames &&
        total - bounds[i] >= cfg.min_segment_frames)
      merged.push_back(bounds[i]);
  }
  merged.push_back(total);

  // Split too-long segments.
  std::vector<codec::SegmentPlan> plans;
  for (std::size_t i = 0; i + 1 < merged.size(); ++i) {
    int start = merged[i];
    const int end = merged[i + 1];
    while (end - start > cfg.max_segment_frames) {
      plans.push_back({start, cfg.max_segment_frames});
      start += cfg.max_segment_frames;
    }
    plans.push_back({start, end - start});
  }
  return plans;
}

std::vector<codec::SegmentPlan> fixed_segments(int frame_count, int segment_frames) {
  if (frame_count <= 0 || segment_frames <= 0)
    throw std::invalid_argument("fixed_segments: bad arguments");
  std::vector<codec::SegmentPlan> plans;
  for (int start = 0; start < frame_count; start += segment_frames)
    plans.push_back({start, std::min(segment_frames, frame_count - start)});
  return plans;
}

}  // namespace dcsr::split

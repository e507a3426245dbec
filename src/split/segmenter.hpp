#pragma once

#include <vector>

#include "codec/encoder.hpp"
#include "split/shot_detector.hpp"
#include "video/source.hpp"

namespace dcsr::split {

/// Constraints applied when turning shot boundaries into encodable segments.
struct SegmenterConfig {
  ShotDetectorConfig detector;

  /// Segments shorter than this are merged into their predecessor (avoids a
  /// flood of I frames on rapid-cut content).
  int min_segment_frames = 8;

  /// Segments longer than this are split (bounds the damage of a missed cut
  /// and keeps ABR switching granularity; see Netflix's shot-based encode
  /// notes and [4] in the paper).
  int max_segment_frames = 300;
};

/// Variable-length, content-aware segmentation: one segment per detected
/// shot, post-processed with the min/max constraints. The encoder places an
/// I frame at each segment start, so this is the paper's "appropriate
/// placement of I frames" (§3.1.1). Throws std::invalid_argument on an empty
/// video or max_segment_frames < 1.
std::vector<codec::SegmentPlan> variable_segments(const VideoSource& video,
                                                  const SegmenterConfig& cfg = {});

/// Fixed-length segmentation (the content-agnostic baseline used by
/// NAS/NEMO-style pipelines, which the paper argues wastes I-frame bitrate).
std::vector<codec::SegmentPlan> fixed_segments(int frame_count,
                                               int segment_frames);

}  // namespace dcsr::split

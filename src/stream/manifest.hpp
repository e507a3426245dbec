#pragma once

#include <cstdint>
#include <vector>

#include "codec/types.hpp"

namespace dcsr::stream {

/// Sentinel model label meaning "this segment needs no model" (the LOW
/// baseline, which plays the degraded video as-is).
inline constexpr int kNoModel = -1;

/// What a client needs to know to fetch one segment.
struct SegmentEntry {
  int segment_index = 0;
  int frame_count = 0;
  std::uint64_t video_bytes = 0;  // encoded payload of the segment
  int model_label = kNoModel;     // which model enhances this segment
};

/// Streaming manifest: the per-segment fetch plan plus the size of every
/// model the video references. For dcSR, model_label is the segment's
/// cluster id; for NAS/NEMO every segment carries label 0 (the single big
/// model); for LOW every label is kNoModel.
struct Manifest {
  std::vector<SegmentEntry> segments;
  std::vector<std::uint64_t> model_bytes;  // indexed by model label

  std::uint64_t total_video_bytes() const noexcept;
  std::uint64_t total_model_bytes_unique() const noexcept;
};

/// Builds a manifest from an encoded video and per-segment model labels
/// (labels.size() must equal the segment count). `model_bytes[label]` gives
/// each model's serialised size.
Manifest make_manifest(const codec::EncodedVideo& video,
                       const std::vector<int>& labels,
                       std::vector<std::uint64_t> model_bytes);

/// Manifest for single-model methods (NAS/NEMO): every segment uses model 0.
Manifest make_single_model_manifest(const codec::EncodedVideo& video,
                                    std::uint64_t model_size_bytes);

/// Manifest for the LOW baseline: no models at all.
Manifest make_plain_manifest(const codec::EncodedVideo& video);

}  // namespace dcsr::stream

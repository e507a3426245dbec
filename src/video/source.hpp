#pragma once

#include <memory>
#include <string>
#include <vector>

#include "video/scene.hpp"

namespace dcsr {

/// Random-access frame producer. The codec and pipelines consume this
/// interface, so real decoders, synthetic generators, and test fixtures are
/// interchangeable. Frames must be pure functions of the index (no hidden
/// playback state), which permits out-of-order access during training, and
/// `frame()` must be safe to call concurrently: codec::Encoder::encode
/// renders each closed GOP's frames on the pool thread that encodes it.
class VideoSource {
 public:
  VideoSource() = default;
  VideoSource(const VideoSource&) = delete;
  VideoSource& operator=(const VideoSource&) = delete;
  virtual ~VideoSource() = default;

  virtual FrameRGB frame(int index) const = 0;
  virtual int frame_count() const noexcept = 0;
  virtual int width() const noexcept = 0;
  virtual int height() const noexcept = 0;
  virtual double fps() const noexcept = 0;

  double duration_seconds() const noexcept {
    return static_cast<double>(frame_count()) / fps();
  }
};

/// One shot in a video script: which scene plays, for how many frames, and
/// the time offset within the scene (a recurring scene may resume at a
/// different phase, like a news studio shot that returns mid-broadcast).
struct Shot {
  int scene_id = 0;
  int frame_count = 0;
  double scene_time_offset = 0.0;
};

/// Synthetic video assembled from a scene library and a shot list. Repeating
/// a scene_id across shots creates the long-term visual recurrence that
/// dcSR's segment clustering is designed to exploit.
class SyntheticVideo final : public VideoSource {
 public:
  SyntheticVideo(std::string name, std::vector<SceneSpec> scenes,
                 std::vector<Shot> shots, int width, int height, double fps);

  FrameRGB frame(int index) const override;
  int frame_count() const noexcept override { return total_frames_; }
  int width() const noexcept override { return width_; }
  int height() const noexcept override { return height_; }
  double fps() const noexcept override { return fps_; }

  const std::string& name() const noexcept { return name_; }
  const std::vector<Shot>& shots() const noexcept { return shots_; }
  std::size_t scene_count() const noexcept { return scenes_.size(); }

  /// Index of the shot containing the given frame.
  int shot_of_frame(int index) const;

  /// Ground-truth scene id of a frame; tests use this as the clustering
  /// oracle (frames of the same scene should land in the same cluster).
  int scene_of_frame(int index) const { return shots_[static_cast<std::size_t>(shot_of_frame(index))].scene_id; }

 private:
  std::string name_;
  std::vector<SceneSpec> scenes_;
  std::vector<Shot> shots_;
  std::vector<int> shot_start_;  // first frame index of each shot
  int width_, height_;
  double fps_;
  int total_frames_ = 0;
};

}  // namespace dcsr

#include "video/source.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dcsr {

SyntheticVideo::SyntheticVideo(std::string name, std::vector<SceneSpec> scenes,
                               std::vector<Shot> shots, int width, int height,
                               double fps)
    : name_(std::move(name)),
      scenes_(std::move(scenes)),
      shots_(std::move(shots)),
      width_(width),
      height_(height),
      fps_(fps) {
  if (scenes_.empty() || shots_.empty())
    throw std::invalid_argument("SyntheticVideo: empty scene library or shot list");
  if (width_ <= 0 || height_ <= 0 || !(fps_ > 0.0))
    throw std::invalid_argument("SyntheticVideo: width, height and fps must be positive");
  for (std::size_t i = 0; i < scenes_.size(); ++i)
    validate_scene(scenes_[i], "SyntheticVideo: scene " + std::to_string(i));
  shot_start_.reserve(shots_.size());
  for (const auto& shot : shots_) {
    if (shot.frame_count <= 0)
      throw std::invalid_argument("SyntheticVideo: shot with no frames");
    if (shot.scene_id < 0 || static_cast<std::size_t>(shot.scene_id) >= scenes_.size())
      throw std::invalid_argument("SyntheticVideo: shot references unknown scene");
    shot_start_.push_back(total_frames_);
    total_frames_ += shot.frame_count;
  }
}

int SyntheticVideo::shot_of_frame(int index) const {
  if (index < 0 || index >= total_frames_)
    throw std::out_of_range("SyntheticVideo: frame index out of range");
  const auto it = std::upper_bound(shot_start_.begin(), shot_start_.end(), index);
  return static_cast<int>(it - shot_start_.begin()) - 1;
}

FrameRGB SyntheticVideo::frame(int index) const {
  const int shot_idx = shot_of_frame(index);
  const auto& shot = shots_[static_cast<std::size_t>(shot_idx)];
  const int local = index - shot_start_[static_cast<std::size_t>(shot_idx)];
  const double t = shot.scene_time_offset + static_cast<double>(local) / fps_;
  return render_scene(scenes_[static_cast<std::size_t>(shot.scene_id)], t, width_, height_);
}

}  // namespace dcsr

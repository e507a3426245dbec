#include <gtest/gtest.h>

#include "split/segmenter.hpp"
#include "split/shot_detector.hpp"
#include "util/thread_pool.hpp"
#include "video/genres.hpp"
#include "video/source.hpp"

namespace dcsr::split {
namespace {

// A video with known cuts at frames 30 and 60 (three static, very different
// scenes).
std::unique_ptr<SyntheticVideo> video_with_cuts() {
  Rng rng(1);
  std::vector<SceneSpec> scenes;
  for (int i = 0; i < 3; ++i) {
    SceneSpec s = random_scene(rng, 0.0f, 0.3f);
    s.background = Background::kGradient;
    s.sprites.clear();
    s.flicker = 0.0f;
    // Flat scenes with clearly separated luma levels (0.15 / 0.5 / 0.85) so
    // every cut produces a large, known difference spike.
    const float v = 0.15f + 0.35f * static_cast<float>(i);
    s.color_a = {v, v, v};
    s.color_b = {v, v, v};
    scenes.push_back(s);
  }
  std::vector<Shot> shots{{0, 30, 0.0}, {1, 30, 0.0}, {2, 30, 0.0}};
  return std::make_unique<SyntheticVideo>("cuts", scenes, shots, 64, 48, 30.0);
}

TEST(ShotDetector, DifferenceSignalSpikesAtCuts) {
  const auto video = video_with_cuts();
  const auto diffs = frame_differences(*video);
  ASSERT_EQ(diffs.size(), 90u);
  EXPECT_DOUBLE_EQ(diffs[0], 0.0);
  // Cuts at 30 and 60 dominate everything else.
  for (std::size_t i = 1; i < diffs.size(); ++i) {
    if (i == 30 || i == 60) {
      EXPECT_GT(diffs[i], 0.2) << "cut at " << i;
    } else {
      EXPECT_LT(diffs[i], 0.05) << "non-cut at " << i;
    }
  }
}

TEST(ShotDetector, DifferencesBitIdenticalAcrossThreadCounts) {
  // Chunks of frames render concurrently, each re-rendering the frame before
  // its first; every difference must match the serial pass bit for bit.
  const auto video = make_genre_video(Genre::kMusicVideo, 3, 64, 48, 5.0);
  const int saved_threads = default_thread_count();
  set_default_pool_threads(1);
  const auto serial = frame_differences(*video);
  set_default_pool_threads(4);
  const auto pooled = frame_differences(*video);
  set_default_pool_threads(saved_threads);
  EXPECT_EQ(serial, pooled);
  // A one-frame video has no pairs to difference.
  EXPECT_EQ(frame_differences(*make_genre_video(Genre::kNews, 1, 64, 48, 1.0, 1.0)),
            std::vector<double>{0.0});
}

TEST(ShotDetector, DetectsExactBoundaries) {
  const auto video = video_with_cuts();
  EXPECT_EQ(detect_shots(*video), (std::vector<int>{0, 30, 60}));
}

TEST(ShotDetector, ThresholdControlsSensitivity) {
  const auto video = make_genre_video(Genre::kMusicVideo, 3, 64, 48, 20.0);
  ShotDetectorConfig loose{.thumb_width = 48, .threshold = 0.3};
  ShotDetectorConfig tight{.thumb_width = 48, .threshold = 0.02};
  EXPECT_LE(detect_shots(*video, loose).size(), detect_shots(*video, tight).size());
}

TEST(Segmenter, VariableSegmentsCoverVideoExactly) {
  const auto video = make_genre_video(Genre::kSports, 4, 64, 48, 15.0);
  const auto plans = variable_segments(*video);
  ASSERT_FALSE(plans.empty());
  int expected = 0;
  for (const auto& p : plans) {
    EXPECT_EQ(p.first_frame, expected);
    EXPECT_GT(p.frame_count, 0);
    expected += p.frame_count;
  }
  EXPECT_EQ(expected, video->frame_count());
}

TEST(Segmenter, SegmentsAlignWithSceneCuts) {
  const auto video = video_with_cuts();
  const auto plans = variable_segments(*video);
  ASSERT_EQ(plans.size(), 3u);
  EXPECT_EQ(plans[0].first_frame, 0);
  EXPECT_EQ(plans[1].first_frame, 30);
  EXPECT_EQ(plans[2].first_frame, 60);
}

TEST(Segmenter, RespectsMaxSegmentLength) {
  const auto video = video_with_cuts();
  SegmenterConfig cfg;
  cfg.max_segment_frames = 20;
  for (const auto& p : variable_segments(*video, cfg))
    EXPECT_LE(p.frame_count, 20);
}

TEST(Segmenter, RejectsNonPositiveMaxSegmentLength) {
  const auto video = video_with_cuts();
  for (int max : {0, -1}) {
    SegmenterConfig cfg;
    cfg.max_segment_frames = max;
    EXPECT_THROW(variable_segments(*video, cfg), std::invalid_argument) << max;
  }
}

TEST(Segmenter, RespectsMinSegmentLength) {
  const auto video = make_genre_video(Genre::kMusicVideo, 5, 64, 48, 20.0);
  SegmenterConfig cfg;
  cfg.detector.threshold = 0.01;  // hypersensitive: many raw cuts
  cfg.min_segment_frames = 15;
  for (const auto& p : variable_segments(*video, cfg))
    EXPECT_GE(p.frame_count, 15);
}

TEST(Segmenter, FixedSegmentsPartitionExactly) {
  const auto plans = fixed_segments(100, 30);
  ASSERT_EQ(plans.size(), 4u);
  EXPECT_EQ(plans[3].first_frame, 90);
  EXPECT_EQ(plans[3].frame_count, 10);
  EXPECT_THROW(fixed_segments(0, 30), std::invalid_argument);
  EXPECT_THROW(fixed_segments(100, 0), std::invalid_argument);
}

TEST(Segmenter, VariableNeedsFewerSegmentsThanShortFixed) {
  // Content-aware split should produce fewer I-frame positions than a
  // 1-second fixed split on typical content — the paper's encoding-overhead
  // argument for shot-based splitting.
  const auto video = make_genre_video(Genre::kDocumentary, 6, 64, 48, 30.0);
  const auto var = variable_segments(*video);
  const auto fixed = fixed_segments(video->frame_count(), 30);
  EXPECT_LT(var.size(), fixed.size());
}

}  // namespace
}  // namespace dcsr::split

#include <gtest/gtest.h>

#include "stream/errors.hpp"
#include "stream/manifest.hpp"
#include "stream/model_cache.hpp"
#include "stream/session.hpp"

namespace dcsr::stream {
namespace {

// Builds a synthetic encoded video with the given per-segment byte sizes.
codec::EncodedVideo fake_video(const std::vector<std::uint64_t>& segment_bytes) {
  codec::EncodedVideo v;
  v.width = 64;
  v.height = 48;
  for (std::size_t i = 0; i < segment_bytes.size(); ++i) {
    codec::EncodedSegment seg;
    seg.first_frame = static_cast<int>(i) * 30;
    codec::EncodedFrame f;
    f.type = codec::FrameType::kI;
    f.payload.assign(segment_bytes[i], 0xab);
    seg.frames.push_back(std::move(f));
    v.segments.push_back(std::move(seg));
  }
  return v;
}

TEST(ModelCache, PaperWalkthroughExample) {
  // Fig. 7: segment labels 0..6 map to models {0,1,1,2,2,2,3}; downloads
  // happen at segments 0, 1, 3, 6 only.
  const std::vector<int> model_labels{0, 1, 1, 2, 2, 2, 3};
  ModelCache cache;
  std::vector<bool> downloaded;
  for (const int label : model_labels) downloaded.push_back(!cache.fetch(label));
  EXPECT_EQ(downloaded,
            (std::vector<bool>{true, true, false, true, false, false, true}));
  EXPECT_EQ(cache.downloads(), 4);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(ModelCache, ClearResets) {
  ModelCache cache;
  cache.fetch(1);
  cache.fetch(1);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_FALSE(cache.contains(1));
}

TEST(Manifest, TotalsAddUp) {
  const auto video = fake_video({100, 200, 300});
  const Manifest m = make_manifest(video, {0, 1, 0}, {50, 60});
  EXPECT_EQ(m.total_video_bytes(), 600u);
  EXPECT_EQ(m.total_model_bytes_unique(), 110u);
  EXPECT_EQ(m.segments[1].model_label, 1);
}

TEST(Manifest, ValidatesLabels) {
  const auto video = fake_video({100, 200});
  EXPECT_THROW(make_manifest(video, {0}, {50}), std::invalid_argument);
  EXPECT_THROW(make_manifest(video, {0, 5}, {50}), std::invalid_argument);
}

TEST(Manifest, SingleModelAndPlainVariants) {
  const auto video = fake_video({100, 200});
  const Manifest nas = make_single_model_manifest(video, 1000);
  EXPECT_EQ(nas.segments[0].model_label, 0);
  EXPECT_EQ(nas.segments[1].model_label, 0);
  const Manifest low = make_plain_manifest(video);
  EXPECT_EQ(low.segments[0].model_label, kNoModel);
  EXPECT_TRUE(low.model_bytes.empty());
}

TEST(Session, DirectlyConstructedManifestWithDanglingLabelThrows) {
  // make_manifest and parse_playlist validate labels, but nothing used to
  // stop a hand-built Manifest from indexing model_bytes out of bounds.
  Manifest m;
  m.model_bytes = {500};
  m.segments.push_back({0, 30, 1000, 0});  // fine
  m.segments.push_back({1, 30, 1000, 3});  // dangling label
  EXPECT_THROW(simulate_session(m), ManifestError);

  Manifest negative = m;
  negative.segments[1].model_label = -7;  // negative but not kNoModel
  EXPECT_THROW(simulate_session(negative), ManifestError);

  // kNoModel stays valid, and the error carries the offending segment index.
  m.segments[1].model_label = kNoModel;
  EXPECT_NO_THROW(simulate_session(m));
  m.segments[1].model_label = 3;
  try {
    simulate_session(m);
    FAIL() << "expected ManifestError";
  } catch (const ManifestError& e) {
    EXPECT_EQ(e.where(), 1u);
  }
}

TEST(Session, DcsrDownloadsEachModelOnce) {
  const auto video = fake_video({100, 100, 100, 100, 100, 100, 100});
  const Manifest m =
      make_manifest(video, {0, 1, 1, 2, 2, 2, 3}, {10, 20, 30, 40});
  const SessionResult r = simulate_session(m);
  EXPECT_EQ(r.video_bytes, 700u);
  EXPECT_EQ(r.model_bytes, 100u);  // 10+20+30+40, each once
  EXPECT_EQ(r.model_downloads, 4);
  EXPECT_EQ(r.cache_hits, 3);
  // Per-segment log: model bytes appear only on first use.
  EXPECT_EQ(r.log[1].model_bytes, 20u);
  EXPECT_EQ(r.log[2].model_bytes, 0u);
  EXPECT_TRUE(r.log[2].cache_hit);
}

TEST(Session, CacheDisabledRedownloads) {
  const auto video = fake_video({100, 100, 100});
  const Manifest m = make_manifest(video, {0, 0, 0}, {10});
  SessionConfig cfg;
  cfg.enable_model_cache = false;
  const SessionResult r = simulate_session(m, cfg);
  EXPECT_EQ(r.model_bytes, 30u);
  EXPECT_EQ(r.model_downloads, 3);
}

TEST(Session, SingleModelFetchedWithFirstSegment) {
  const auto video = fake_video({100, 100, 100});
  const Manifest m = make_single_model_manifest(video, 500);
  const SessionResult r = simulate_session(m);
  EXPECT_EQ(r.log[0].model_bytes, 500u);
  EXPECT_EQ(r.log[1].model_bytes, 0u);
  EXPECT_EQ(r.model_bytes, 500u);
}

TEST(Session, EarlyAbandonmentSavesDcsrModelBytes) {
  // A user who watches only the first 2 of 6 segments: dcSR only fetched the
  // models those segments needed; the single-model method already paid for
  // the whole big model.
  const auto video = fake_video({100, 100, 100, 100, 100, 100});
  const Manifest dcsr = make_manifest(video, {0, 0, 1, 1, 2, 2}, {50, 50, 50});
  const Manifest nas = make_single_model_manifest(video, 150);

  SessionConfig watch2;
  watch2.watch_segments = 2;
  const auto r_dcsr = simulate_session(dcsr, watch2);
  const auto r_nas = simulate_session(nas, watch2);
  EXPECT_EQ(r_dcsr.model_bytes, 50u);
  EXPECT_EQ(r_nas.model_bytes, 150u);
}

TEST(Session, LowBaselineHasNoModelBytes) {
  const auto video = fake_video({100, 200});
  const SessionResult r = simulate_session(make_plain_manifest(video));
  EXPECT_EQ(r.model_bytes, 0u);
  EXPECT_EQ(r.model_downloads, 0);
  EXPECT_EQ(r.total_bytes(), 300u);
}

}  // namespace
}  // namespace dcsr::stream

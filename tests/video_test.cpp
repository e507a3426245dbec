#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "image/metrics.hpp"
#include "video/genres.hpp"
#include "video/noise.hpp"
#include "video/scene.hpp"
#include "video/source.hpp"

namespace dcsr {
namespace {

// CRC-32 (IEEE 802.3, reflected) of the bit patterns of every sample of `f`,
// continuing from `crc`.
std::uint32_t crc32_frame(std::uint32_t crc, const FrameRGB& f) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (const Plane* p : {&f.r, &f.g, &f.b})
    for (std::size_t i = 0; i < p->size(); ++i) {
      const auto bits = std::bit_cast<std::uint32_t>(p->data()[i]);
      for (int k = 0; k < 32; k += 8) crc = table[(crc ^ (bits >> k)) & 0xffu] ^ (crc >> 8);
    }
  return ~crc;
}

TEST(ValueNoise, DeterministicAndBounded) {
  ValueNoise n(42);
  for (float y = 0; y < 20; y += 3.7f)
    for (float x = 0; x < 20; x += 2.3f) {
      const float a = n.sample(x, y, 8.0f);
      const float b = n.sample(x, y, 8.0f);
      EXPECT_EQ(a, b);
      EXPECT_GE(a, 0.0f);
      EXPECT_LE(a, 1.0f);
    }
}

TEST(ValueNoise, DifferentSeedsDiffer) {
  ValueNoise a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 16; ++i)
    if (a.sample(static_cast<float>(i) * 3.1f, 0.0f, 4.0f) !=
        b.sample(static_cast<float>(i) * 3.1f, 0.0f, 4.0f))
      ++diff;
  EXPECT_GT(diff, 12);
}

TEST(ValueNoise, FbmSmootherThanBase) {
  // fbm averages octaves, so neighbouring samples should differ less than a
  // single fine octave's neighbouring samples.
  ValueNoise n(3);
  double d_base = 0.0, d_fbm = 0.0;
  for (int i = 0; i < 256; ++i) {
    const float x = static_cast<float>(i);
    d_base += std::abs(n.sample(x, 0, 2.0f) - n.sample(x + 1, 0, 2.0f));
    d_fbm += std::abs(n.fbm(x, 0, 32.0f, 4) - n.fbm(x + 1, 0, 32.0f, 4));
  }
  EXPECT_LT(d_fbm, d_base);
}

TEST(ValueNoise, FbmGridMatchesFbm) {
  struct Case {
    std::vector<float> xs, ys;
    float base_scale;
    int octaves;
  };
  auto span = [](float start, float step, int n) {
    std::vector<float> v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = start + step * static_cast<float>(i);
    return v;
  };
  const std::vector<Case> cases = {
      // Negative, fractional coordinates over many cells, every octave run.
      {span(-83.4f, 1.0f, 150), span(-21.7f, 1.0f, 40), 24.0f, 5},
      {span(-3.3f, 0.37f, 97), span(5.1f, 2.9f, 23), 7.0f, 4},
      // Base scales at which the octave loop breaks early.
      {span(-10.5f, 0.5f, 60), span(-4.25f, 0.75f, 30), 1.5f, 4},
      {span(-10.5f, 0.5f, 60), span(-4.25f, 0.75f, 30), 0.75f, 3},
      // One column, one row, one sample.
      {span(-7.6f, 1.0f, 1), span(-30.2f, 1.0f, 45), 8.0f, 3},
      {span(-31.0f, 1.0f, 70), span(12.9f, 1.0f, 1), 8.0f, 3},
      {span(2.5f, 1.0f, 1), span(-2.5f, 1.0f, 1), 16.0f, 6},
      // Descending and jumping columns: no two neighbours share a cell.
      {span(40.0f, -1.3f, 64), span(0.0f, 9.7f, 12), 6.0f, 3},
      {{0.0f, 500.0f, -200.0f, 3.0f, 3.5f, 1e4f, 2.0f}, span(-1.0f, 1.0f, 9), 12.0f, 4},
  };
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xabcdef1234ULL}) {
    const ValueNoise noise(seed);
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const Case& k = cases[c];
      const int nx = static_cast<int>(k.xs.size()), ny = static_cast<int>(k.ys.size());
      std::vector<float> grid(k.xs.size() * k.ys.size());
      noise.fbm_grid(k.xs.data(), nx, k.ys.data(), ny, k.base_scale, k.octaves, grid.data());
      int mismatches = 0;
      for (int j = 0; j < ny; ++j)
        for (int i = 0; i < nx; ++i) {
          const float want = noise.fbm(k.xs[static_cast<std::size_t>(i)],
                                       k.ys[static_cast<std::size_t>(j)], k.base_scale, k.octaves);
          const float got = grid[static_cast<std::size_t>(j * nx + i)];
          if (std::bit_cast<std::uint32_t>(got) != std::bit_cast<std::uint32_t>(want)) ++mismatches;
        }
      EXPECT_EQ(mismatches, 0) << "seed " << seed << ", case " << c;
    }
  }
}

TEST(Scene, RenderIsDeterministic) {
  Rng rng(5);
  const SceneSpec spec = random_scene(rng, 1.0f, 0.5f);
  const FrameRGB a = render_scene(spec, 1.25, 64, 48);
  const FrameRGB b = render_scene(spec, 1.25, 64, 48);
  EXPECT_DOUBLE_EQ(psnr(a, b), 100.0);
}

TEST(Scene, TimeChangesContentWhenInMotion) {
  Rng rng(6);
  SceneSpec spec = random_scene(rng, 2.0f, 0.5f);
  spec.pan_vx = 0.1f;  // force motion
  const FrameRGB a = render_scene(spec, 0.0, 64, 48);
  const FrameRGB b = render_scene(spec, 2.0, 64, 48);
  EXPECT_LT(psnr(a, b), 60.0);
}

TEST(Scene, PixelsAreInRange) {
  Rng rng(7);
  const SceneSpec spec = random_scene(rng, 1.0f, 1.0f);
  const FrameRGB f = render_scene(spec, 0.5, 32, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) {
      EXPECT_GE(f.r.at(x, y), 0.0f);
      EXPECT_LE(f.r.at(x, y), 1.0f);
    }
}

// Hand-built scenes, one per background, whose sprites cover every drawing
// path: textured and flat circles and rectangles, two of them clipped by the
// frame edges. The pan is negative in x so noise is sampled at negative
// coordinates, and the flicker is strong enough to drive the clamp.
std::vector<SceneSpec> edge_case_scenes() {
  std::vector<SceneSpec> scenes;
  for (const Background bg : {Background::kGradient, Background::kTexture,
                              Background::kStripes, Background::kCheckerboard}) {
    SceneSpec s;
    s.seed = 1000 + static_cast<std::uint64_t>(bg);
    s.background = bg;
    s.color_a = {0.9f, 0.2f, 0.6f};
    s.color_b = {0.1f, 0.8f, 0.95f};
    s.texture_scale = 40.0f;
    s.texture_octaves = 5;
    s.pan_vx = -0.07f;
    s.pan_vy = 0.03f;
    s.flicker = 0.3f;
    using Shape = Sprite::Shape;
    s.sprites = {
        {Shape::kCircle, 0.03f, 0.95f, 0.0f, 0.0f, 0.3f, 0.4f, {0.7f, 0.4f, 0.2f}, 0.6f},
        {Shape::kRectangle, 0.98f, 0.02f, 0.0f, 0.0f, 0.25f, 0.2f, {0.3f, 0.9f, 0.5f}, 0.9f},
        {Shape::kCircle, 0.5f, 0.5f, 0.1f, -0.05f, 0.2f, 0.3f, {0.2f, 0.3f, 0.8f}, 0.0f},
        {Shape::kRectangle, 0.4f, 0.6f, -0.1f, 0.1f, 0.15f, 0.1f, {1.0f, 1.0f, 0.1f}, 0.0f},
    };
    scenes.push_back(s);
  }
  return scenes;
}

// Golden CRC-32 of rendered frames: every scene of every genre's library
// (regenerated the way make_genre_video draws it) plus edge_case_scenes(), at
// one even and one odd size and at the client-playback size. Any change to a
// rendered float moves it; the values were computed with the per-pixel
// renderer that render_scene replaced.
TEST(Scene, RenderIsPinned) {
  struct Size {
    int w, h;
    std::uint32_t crc;
  };
  const Size sizes[] = {
      {96, 64, 0xbcec0eb2u}, {33, 17, 0x6a298384u}, {320, 192, 0x2db668f0u}};
  for (const Size& size : sizes) {
    std::uint32_t crc = 0;
    for (const Genre g : all_genres()) {
      const GenreProfile prof = profile_for(g);
      Rng rng(7 ^ (static_cast<std::uint64_t>(g) << 32));
      for (int i = 0; i < prof.scene_library_size; ++i) {
        const SceneSpec spec =
            random_scene(rng, prof.motion_intensity, prof.texture_detail);
        crc = crc32_frame(crc, render_scene(spec, 1.37, size.w, size.h));
      }
    }
    for (const SceneSpec& spec : edge_case_scenes())
      for (const double t : {0.26, 2.9})
        crc = crc32_frame(crc, render_scene(spec, t, size.w, size.h));
    EXPECT_EQ(crc, size.crc) << size.w << "x" << size.h << std::hex << " crc 0x" << crc;
  }
}

TEST(SyntheticVideo, FrameCountMatchesShots) {
  Rng rng(8);
  std::vector<SceneSpec> scenes{random_scene(rng, 1, 0.5f), random_scene(rng, 1, 0.5f)};
  std::vector<Shot> shots{{0, 10, 0.0}, {1, 5, 0.0}, {0, 7, 3.0}};
  SyntheticVideo v("test", scenes, shots, 32, 32, 30.0);
  EXPECT_EQ(v.frame_count(), 22);
  EXPECT_EQ(v.shot_of_frame(0), 0);
  EXPECT_EQ(v.shot_of_frame(9), 0);
  EXPECT_EQ(v.shot_of_frame(10), 1);
  EXPECT_EQ(v.shot_of_frame(15), 2);
  EXPECT_EQ(v.scene_of_frame(15), 0);
  EXPECT_THROW(v.frame(22), std::out_of_range);
}

TEST(SyntheticVideo, RecurringSceneLooksAlike) {
  // Two shots of the same scene should be far more similar to each other
  // than to a shot of a different scene — the property clustering exploits.
  Rng rng(9);
  std::vector<SceneSpec> scenes{random_scene(rng, 0.2f, 0.5f),
                                random_scene(rng, 0.2f, 0.5f)};
  std::vector<Shot> shots{{0, 5, 0.0}, {1, 5, 0.0}, {0, 5, 1.0}};
  SyntheticVideo v("test", scenes, shots, 64, 48, 30.0);
  const FrameRGB first = v.frame(0);
  const FrameRGB other_scene = v.frame(5);
  const FrameRGB recurrence = v.frame(10);
  EXPECT_GT(psnr(first, recurrence), psnr(first, other_scene));
}

TEST(SyntheticVideo, RejectsBadShotLists) {
  Rng rng(10);
  std::vector<SceneSpec> scenes{random_scene(rng, 1, 0.5f)};
  EXPECT_THROW(SyntheticVideo("x", scenes, {}, 32, 32, 30.0), std::invalid_argument);
  EXPECT_THROW(SyntheticVideo("x", scenes, {{5, 10, 0.0}}, 32, 32, 30.0),
               std::invalid_argument);
  EXPECT_THROW(SyntheticVideo("x", scenes, {{0, 0, 0.0}}, 32, 32, 30.0),
               std::invalid_argument);
}

TEST(Scene, TextureWithoutOctavesIsRejected) {
  // fbm over zero octaves divides 0 by 0: every pixel would be NaN.
  SceneSpec spec;
  spec.background = Background::kTexture;
  spec.texture_octaves = 0;
  EXPECT_THROW(render_scene(spec, 0.0, 16, 16), std::invalid_argument);
  spec.texture_octaves = -3;
  EXPECT_THROW(render_scene(spec, 0.0, 16, 16), std::invalid_argument);
  // Only the texture background reads the octave count.
  spec.background = Background::kGradient;
  const FrameRGB f = render_scene(spec, 0.0, 16, 16);
  EXPECT_FALSE(std::isnan(f.r.at(3, 3)));
}

TEST(SyntheticVideo, RejectsBadGeometryAndScenesAtConstruction) {
  Rng rng(11);
  std::vector<SceneSpec> scenes{random_scene(rng, 1, 0.5f), random_scene(rng, 1, 0.5f)};
  const std::vector<Shot> shots{{0, 4, 0.0}, {1, 4, 0.0}};
  EXPECT_THROW(SyntheticVideo("x", scenes, shots, 0, 32, 30.0), std::invalid_argument);
  EXPECT_THROW(SyntheticVideo("x", scenes, shots, 32, -2, 30.0), std::invalid_argument);
  EXPECT_THROW(SyntheticVideo("x", scenes, shots, 32, 32, 0.0), std::invalid_argument);
  EXPECT_THROW(SyntheticVideo("x", scenes, shots, 32, 32, -30.0), std::invalid_argument);
  EXPECT_THROW(SyntheticVideo("x", scenes, shots, 32, 32, std::nan("")), std::invalid_argument);
  scenes[1].background = Background::kTexture;
  scenes[1].texture_octaves = 0;
  try {
    SyntheticVideo("x", scenes, shots, 32, 32, 30.0);
    ADD_FAILURE() << "a texture scene without octaves was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scene 1"), std::string::npos) << e.what();
  }
}

TEST(Genres, AllSixGenresBuild) {
  for (const Genre g : all_genres()) {
    const auto v = make_genre_video(g, 1, 64, 48, 10.0, 30.0);
    EXPECT_EQ(v->frame_count(), 300) << genre_name(g);
    EXPECT_GE(v->shots().size(), 2u) << genre_name(g);
    // Every shot must reference a valid scene; rendering must not throw.
    const FrameRGB f = v->frame(v->frame_count() - 1);
    EXPECT_EQ(f.width(), 64);
  }
}

TEST(Genres, DeterministicAcrossCalls) {
  const auto a = make_genre_video(Genre::kSports, 7, 32, 32, 5.0);
  const auto b = make_genre_video(Genre::kSports, 7, 32, 32, 5.0);
  ASSERT_EQ(a->frame_count(), b->frame_count());
  EXPECT_DOUBLE_EQ(psnr(a->frame(37), b->frame(37)), 100.0);
}

TEST(Genres, NewsRecursMoreThanDocumentary) {
  // Count repeated-scene shots; news should revisit scenes far more often.
  auto count_recurrences = [](Genre g) {
    const auto v = make_genre_video(g, 3, 32, 32, 120.0);
    std::vector<bool> seen(v->scene_count(), false);
    int rec = 0;
    for (const auto& shot : v->shots()) {
      if (seen[static_cast<std::size_t>(shot.scene_id)]) ++rec;
      seen[static_cast<std::size_t>(shot.scene_id)] = true;
    }
    return rec;
  };
  EXPECT_GT(count_recurrences(Genre::kNews),
            count_recurrences(Genre::kDocumentary));
}

TEST(Genres, ProfilesHaveSaneRanges) {
  for (const Genre g : all_genres()) {
    const GenreProfile p = profile_for(g);
    EXPECT_GT(p.scene_library_size, 0);
    EXPECT_GT(p.mean_shot_seconds, 0.0);
    EXPECT_GE(p.recurrence_prob, 0.0);
    EXPECT_LE(p.recurrence_prob, 1.0);
  }
}

}  // namespace
}  // namespace dcsr

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "image/frame.hpp"
#include "util/rng.hpp"

namespace dcsr {

/// Colour triple in [0,1].
struct Color {
  float r = 0.0f, g = 0.0f, b = 0.0f;
};

/// One moving foreground object in a scene.
struct Sprite {
  enum class Shape { kRectangle, kCircle };
  Shape shape = Shape::kRectangle;
  // Position/size in scene-relative units ([0,1] of frame width/height) so a
  // scene renders consistently at any resolution.
  float cx = 0.5f, cy = 0.5f;   // centre at t = 0
  float vx = 0.0f, vy = 0.0f;   // units per second
  float w = 0.1f, h = 0.1f;     // extent
  Color color;
  float texture_amount = 0.0f;  // 0 = flat fill, 1 = fully textured
};

/// Background style of a scene.
enum class Background : std::uint8_t {
  kGradient,     // smooth two-colour gradient (cheap to encode)
  kTexture,      // fractal value-noise texture (detail-rich, SR-relevant)
  kStripes,      // high-contrast periodic pattern (sharp edges)
  kCheckerboard  // blocky pattern (animation/gaming look)
};

/// A full static description of one shot's content. Rendering a frame is a
/// pure function of (SceneSpec, time), which is what lets distinct segments
/// that share a SceneSpec be *visually identical up to motion phase* — the
/// long-term scene-recurrence property dcSR's clustering exploits.
struct SceneSpec {
  std::uint64_t seed = 1;  // drives the texture lattice + deterministic detail
  Background background = Background::kTexture;
  Color color_a, color_b;   // palette endpoints
  float texture_scale = 24.0f;  // lattice cell size in pixels at 1080p-equivalent
  int texture_octaves = 4;
  float pan_vx = 0.0f, pan_vy = 0.0f;  // background pan, units/second
  float flicker = 0.0f;                // global luma modulation amplitude
  std::vector<Sprite> sprites;
};

/// Throws std::invalid_argument, prefixed with `where`, for a spec that would
/// render NaN: a texture background with fewer than one octave.
void validate_scene(const SceneSpec& spec, const std::string& where);

/// Renders the scene at time `t` seconds into a frame of the given size;
/// throws std::invalid_argument for a spec validate_scene rejects.
FrameRGB render_scene(const SceneSpec& spec, double t, int width, int height);

/// Draws a random scene from a genre-agnostic distribution; used by tests
/// and as a building block for the genre presets.
SceneSpec random_scene(Rng& rng, float motion_intensity, float texture_detail);

}  // namespace dcsr

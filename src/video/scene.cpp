#include "video/scene.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "video/noise.hpp"

namespace dcsr {

namespace {

Color lerp(const Color& a, const Color& b, float t) noexcept {
  return {a.r + (b.r - a.r) * t, a.g + (b.g - a.g) * t, a.b + (b.b - a.b) * t};
}

// std::clamp(v, 0.0f, 1.0f) on values rather than references, which lets
// the compiler turn the loops below into vector min/max.
inline float clamp01(float v) noexcept { return v < 0.0f ? 0.0f : (1.0f < v ? 1.0f : v); }

// Writes `c` scaled by the flicker gain and clamped to [0,1] as sample i.
inline void put(float* r, float* g, float* b, std::size_t i, const Color& c, float flick) {
  r[i] = clamp01(c.r * flick);
  g[i] = clamp01(c.g * flick);
  b[i] = clamp01(c.b * flick);
}

// Renders the background into `frame`. Every sample keeps the expression of
// a per-pixel evaluation at (px[x], py[y]); terms that depend on one
// coordinate only are computed once per column or once per row.
void render_background(const SceneSpec& spec, const std::vector<float>& px,
                       const std::vector<float>& py, float flick, FrameRGB& frame) {
  const int width = frame.width(), height = frame.height();
  const auto W = static_cast<std::size_t>(width);
  // Scale texture coordinates so a scene looks the same (just sharper) at any
  // render resolution; 1080 rows is the reference. The floor keeps features
  // at least a few pixels wide — real video downscaled this far is smooth,
  // not pixel noise, and pixel noise is not super-resolvable content.
  const float res_scale = static_cast<float>(height) / 1080.0f;
  const float scale = std::max(6.0f, spec.texture_scale * res_scale);
  // Locals, so the compiler need not reload them after each store.
  const Color ca = spec.color_a, cb = spec.color_b;
  float* r = frame.r.data();
  float* g = frame.g.data();
  float* b = frame.b.data();
  switch (spec.background) {
    case Background::kGradient: {
      std::vector<float> col(W);
      for (std::size_t x = 0; x < W; ++x) col[x] = px[x] / static_cast<float>(width);
      for (int y = 0; y < height; ++y) {
        const float row = py[static_cast<std::size_t>(y)] / static_cast<float>(height);
        const std::size_t o = static_cast<std::size_t>(y) * W;
        for (std::size_t x = 0; x < W; ++x) {
          const float t = 0.5f * (col[x] + row);
          put(r, g, b, o + x, lerp(ca, cb, clamp01(t)),
              flick);
        }
      }
      return;
    }
    case Background::kTexture: {
      // The b plane holds the noise until each sample's lerp overwrites it.
      ValueNoise(spec.seed).fbm_grid(px.data(), width, py.data(), height, scale,
                                     spec.texture_octaves, b);
      for (std::size_t i = 0; i < W * static_cast<std::size_t>(height); ++i)
        put(r, g, b, i, lerp(ca, cb, b[i]), flick);
      return;
    }
    case Background::kStripes: {
      // The colour depends on x alone: render row 0, then copy it.
      for (std::size_t x = 0; x < W; ++x) {
        const float phase = std::sin(2.0f * 3.14159265f * px[x] / (scale * 2.0f));
        put(r, g, b, x, phase > 0.0f ? ca : cb, flick);
      }
      for (Plane* p : {&frame.r, &frame.g, &frame.b})
        for (int y = 1; y < height; ++y)
          std::copy_n(p->data(), W, p->data() + static_cast<std::size_t>(y) * W);
      return;
    }
    case Background::kCheckerboard: {
      std::vector<int> col(W);
      for (std::size_t x = 0; x < W; ++x)
        col[x] = static_cast<int>(std::floor(px[x] / scale));
      for (int y = 0; y < height; ++y) {
        const int cy = static_cast<int>(std::floor(py[static_cast<std::size_t>(y)] / scale));
        const std::size_t o = static_cast<std::size_t>(y) * W;
        for (std::size_t x = 0; x < W; ++x)
          put(r, g, b, o + x, ((col[x] + cy) & 1) ? ca : cb, flick);
      }
      return;
    }
  }
  for (std::size_t i = 0; i < W * static_cast<std::size_t>(height); ++i)
    put(r, g, b, i, ca, flick);
}

}  // namespace

void validate_scene(const SceneSpec& spec, const std::string& where) {
  if (spec.background == Background::kTexture && spec.texture_octaves < 1)
    throw std::invalid_argument(where + ": texture background needs texture_octaves >= 1, got " +
                                std::to_string(spec.texture_octaves));
}

FrameRGB render_scene(const SceneSpec& spec, double t, int width, int height) {
  validate_scene(spec, "render_scene");
  FrameRGB frame(width, height);
  const ValueNoise sprite_noise(spec.seed ^ 0xabcdef1234ULL);

  const float pan_x = static_cast<float>(spec.pan_vx * t) * static_cast<float>(width);
  const float pan_y = static_cast<float>(spec.pan_vy * t) * static_cast<float>(height);
  const float flick =
      1.0f + spec.flicker * std::sin(static_cast<float>(t) * 6.0f);

  std::vector<float> px(static_cast<std::size_t>(std::max(width, 0)));
  std::vector<float> py(static_cast<std::size_t>(std::max(height, 0)));
  for (std::size_t x = 0; x < px.size(); ++x) px[x] = static_cast<float>(x) + pan_x;
  for (std::size_t y = 0; y < py.size(); ++y) py[y] = static_cast<float>(y) + pan_y;
  render_background(spec, px, py, flick, frame);

  // Foreground sprites, drawn back-to-front in declaration order. Sprites
  // bounce off frame edges so long shots keep their content on screen.
  std::vector<float> offsets, noise;
  for (const auto& s : spec.sprites) {
    auto bounce = [](float start, float v, double tt) {
      float pos = start + static_cast<float>(v * tt);
      pos = std::fmod(pos, 2.0f);
      if (pos < 0.0f) pos += 2.0f;
      return pos > 1.0f ? 2.0f - pos : pos;
    };
    const float cx = bounce(s.cx, s.vx, t) * static_cast<float>(width);
    const float cy = bounce(s.cy, s.vy, t) * static_cast<float>(height);
    const float hw = 0.5f * s.w * static_cast<float>(width);
    const float hh = 0.5f * s.h * static_cast<float>(height);
    const int x0 = std::max(0, static_cast<int>(cx - hw));
    const int x1 = std::min(width - 1, static_cast<int>(cx + hw));
    const int y0 = std::max(0, static_cast<int>(cy - hh));
    const int y1 = std::min(height - 1, static_cast<int>(cy + hh));
    const int bw = x1 - x0 + 1, bh = y1 - y0 + 1;
    if (bw <= 0 || bh <= 0) continue;
    const bool textured = s.texture_amount > 0.0f;
    if (textured) {
      // The sprite's noise over its box, at offsets from the box corner.
      offsets.resize(static_cast<std::size_t>(std::max(bw, bh)));
      for (std::size_t i = 0; i < offsets.size(); ++i) offsets[i] = static_cast<float>(i);
      noise.resize(static_cast<std::size_t>(bw) * static_cast<std::size_t>(bh));
      sprite_noise.fbm_grid(offsets.data(), bw, offsets.data(), bh, 8.0f, 3, noise.data());
    }
    for (int y = y0; y <= y1; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * static_cast<std::size_t>(width);
      float* r = frame.r.data() + row;
      float* g = frame.g.data() + row;
      float* b = frame.b.data() + row;
      const float* n =
          textured ? noise.data() + static_cast<std::size_t>(y - y0) * static_cast<std::size_t>(bw)
                   : nullptr;
      for (int x = x0; x <= x1; ++x) {
        if (s.shape == Sprite::Shape::kCircle) {
          const float dx = (static_cast<float>(x) - cx) / hw;
          const float dy = (static_cast<float>(y) - cy) / hh;
          if (dx * dx + dy * dy > 1.0f) continue;
        }
        Color c = s.color;
        if (textured) {
          const float m = 1.0f - s.texture_amount * (1.0f - n[x - x0]);
          c.r *= m;
          c.g *= m;
          c.b *= m;
        }
        r[x] = c.r;
        g[x] = c.g;
        b[x] = c.b;
      }
    }
  }
  return frame;
}

SceneSpec random_scene(Rng& rng, float motion_intensity, float texture_detail) {
  SceneSpec spec;
  spec.seed = rng.next_u64();
  const double bg = rng.uniform();
  if (bg < 0.5) {
    spec.background = Background::kTexture;
  } else if (bg < 0.7) {
    spec.background = Background::kGradient;
  } else if (bg < 0.85) {
    spec.background = Background::kStripes;
  } else {
    spec.background = Background::kCheckerboard;
  }
  spec.color_a = {static_cast<float>(rng.uniform(0.05, 0.95)),
                  static_cast<float>(rng.uniform(0.05, 0.95)),
                  static_cast<float>(rng.uniform(0.05, 0.95))};
  spec.color_b = {static_cast<float>(rng.uniform(0.05, 0.95)),
                  static_cast<float>(rng.uniform(0.05, 0.95)),
                  static_cast<float>(rng.uniform(0.05, 0.95))};
  spec.texture_scale = static_cast<float>(rng.uniform(10.0, 60.0)) /
                       std::max(0.25f, texture_detail);
  spec.texture_octaves = 2 + static_cast<int>(texture_detail * 4.0f);
  spec.pan_vx = static_cast<float>(rng.uniform(-0.05, 0.05)) * motion_intensity;
  spec.pan_vy = static_cast<float>(rng.uniform(-0.02, 0.02)) * motion_intensity;
  spec.flicker = static_cast<float>(rng.uniform(0.0, 0.03));

  const int n_sprites = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < n_sprites; ++i) {
    Sprite s;
    s.shape = rng.uniform() < 0.5 ? Sprite::Shape::kRectangle : Sprite::Shape::kCircle;
    s.cx = static_cast<float>(rng.uniform(0.1, 0.9));
    s.cy = static_cast<float>(rng.uniform(0.1, 0.9));
    s.vx = static_cast<float>(rng.uniform(-0.25, 0.25)) * motion_intensity;
    s.vy = static_cast<float>(rng.uniform(-0.15, 0.15)) * motion_intensity;
    s.w = static_cast<float>(rng.uniform(0.05, 0.25));
    s.h = static_cast<float>(rng.uniform(0.05, 0.25));
    s.color = {static_cast<float>(rng.uniform(0.1, 1.0)),
               static_cast<float>(rng.uniform(0.1, 1.0)),
               static_cast<float>(rng.uniform(0.1, 1.0))};
    s.texture_amount = static_cast<float>(rng.uniform(0.0, 1.0)) * texture_detail;
    spec.sprites.push_back(s);
  }
  return spec;
}

}  // namespace dcsr

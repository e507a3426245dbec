#pragma once

#include "image/frame.hpp"

namespace dcsr::codec {

/// Motion vector. Units depend on context: the search functions work in
/// integer pel; the frame coder stores and signals vectors in HALF-pel units
/// (H.264-style sub-pel prediction, one refinement level).
struct MotionVector {
  int x = 0, y = 0;
};

/// Samples a plane at half-pel coordinates (x2, y2 are positions in units of
/// half a pixel): even coordinates hit integer samples, odd ones bilinearly
/// average the neighbours. Edge-clamped.
float sample_halfpel(const Plane& p, int x2, int y2) noexcept;

/// Motion-compensated prediction of the `size`x`size` block at (bx, by),
/// `mv` in half-pel units: writes sample_halfpel(ref, 2 * (bx + x) + mv.x,
/// 2 * (by + y) + mv.y) to dst[y * stride + x], bit for bit. The half-pel
/// phase is the same for every sample of a block, so it is chosen once; a
/// block whose footprint lies inside `ref` reads rows through pointers, one
/// that touches a border samples clamped pixels.
void predict_block_halfpel(const Plane& ref, int bx, int by, int size,
                           MotionVector mv, float* dst, int stride) noexcept;

/// Sum of absolute differences between a `size`x`size` block of `cur` at
/// (bx, by) and the block of `ref` displaced by (mv.x, mv.y); edge-clamped.
/// Blocks inside both planes read rows; the sum runs in raster order either
/// way.
float block_sad(const Plane& cur, const Plane& ref, int bx, int by, int size,
                MotionVector mv) noexcept;

/// Three-step search (log-scale diamond refinement) for the motion of the
/// `size`x`size` block at (bx, by) in `cur` against `ref`, within
/// [-range, range]. A small lambda penalises long vectors so near-static
/// content settles on (0,0) and codes cheaply.
MotionVector motion_search(const Plane& cur, const Plane& ref, int bx, int by,
                           int size, int range) noexcept;

/// Half-pel refinement: takes a *half-pel-unit* vector (typically 2x the
/// integer search result) and greedily tests the 8 half-pel neighbours.
/// Returns the refined half-pel vector.
MotionVector refine_halfpel(const Plane& cur, const Plane& ref, int bx, int by,
                            int size, MotionVector mv_halfpel) noexcept;

/// SAD against a half-pel displaced reference block: the raster-order sum
/// of |cur - sample_halfpel(ref, ...)|, with the row reads of
/// predict_block_halfpel inside both planes.
float block_sad_halfpel(const Plane& cur, const Plane& ref, int bx, int by,
                        int size, MotionVector mv_halfpel) noexcept;

}  // namespace dcsr::codec

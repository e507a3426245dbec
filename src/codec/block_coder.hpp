#pragma once

#include <array>
#include <cstdint>

#include "codec/bits.hpp"
#include "codec/dct.hpp"
#include "codec/quant.hpp"
#include "image/frame.hpp"

namespace dcsr::codec {

/// Quantised levels of one 8x8 block, raster order.
using Levels8 = std::array<std::int32_t, 64>;

/// Extracts the 8x8 block at (bx, by) from a plane (edge-clamped).
Block8 extract_block(const Plane& p, int bx, int by) noexcept;

/// Stores an 8x8 block into a plane at (bx, by), clipping to plane bounds.
void store_block(Plane& p, int bx, int by, const Block8& b) noexcept;

/// Transform + quantise a sample/residual block. `intra` selects the
/// quantiser mode (intra blocks are samples biased by -0.5; inter blocks are
/// residuals around 0 — callers handle the bias).
Levels8 forward_block(const Block8& spatial, const Quantizer& q, bool intra) noexcept;

/// Dequantise + inverse transform.
Block8 reconstruct_block(const Levels8& levels, const Quantizer& q, bool intra) noexcept;

bool all_zero(const Levels8& levels) noexcept;

/// Entropy-codes one block of levels as zig-zag run-length pairs
/// terminated by an EOB symbol.
void write_levels(BitWriter& bw, const Levels8& levels);

/// Mirror of write_levels.
Levels8 read_levels(BitReader& br);

}  // namespace dcsr::codec

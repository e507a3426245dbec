#include "codec/block_coder.hpp"

#include <algorithm>

#include "codec/errors.hpp"
#include "util/alloc_check.hpp"

namespace dcsr::codec {

namespace {
// EOB marker: a run value no real (run, level) pair can produce.
constexpr std::uint32_t kEob = 64;
}  // namespace

Block8 extract_block(const Plane& p, int bx, int by) noexcept {
  Block8 b{};
  if (p.contains(bx, by, 8, 8)) {
    const float* row = p.ptr(bx, by);
    for (int y = 0; y < 8; ++y, row += p.width())
      std::copy(row, row + 8, b.begin() + y * 8);
    return b;
  }
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      b[static_cast<std::size_t>(y * 8 + x)] = p.at_clamped(bx + x, by + y);
  return b;
}

void store_block(Plane& p, int bx, int by, const Block8& b) noexcept {
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      const int px = bx + x, py = by + y;
      if (px < p.width() && py < p.height())
        p.at(px, py) = b[static_cast<std::size_t>(y * 8 + x)];
    }
}

Levels8 forward_block(const Block8& spatial, const Quantizer& q, bool intra) noexcept {
  return q.quantize(dct8x8(spatial), intra);
}

Block8 reconstruct_block(const Levels8& levels, const Quantizer& q, bool intra) noexcept {
  // Fused dequant + inverse DCT: one pass over the block, pinned bitwise
  // against idct8x8(dequantize(...)) by the Simd.* suite.
  return q.dequantize_idct(levels, intra);
}

bool all_zero(const Levels8& levels) noexcept {
  for (const auto v : levels)
    if (v != 0) return false;
  return true;
}

void write_levels(BitWriter& bw, const Levels8& levels) {
  std::uint32_t run = 0;
  for (int i = 0; i < 64; ++i) {
    const std::int32_t level = levels[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(i)])];
    if (level == 0) {
      ++run;
      continue;
    }
    bw.put_ue(run);
    bw.put_se(level);
    run = 0;
  }
  bw.put_ue(kEob);
}

Levels8 read_levels(BitReader& br) {
  Levels8 levels{};
  int pos = 0;
  while (true) {
    const std::size_t run_at = br.bits_consumed();
    const std::uint32_t run = br.get_ue();
    if (run >= kEob) break;
    pos += static_cast<int>(run);
    if (pos >= 64) {
      AllocAllowScope allow;
      throw BitstreamError("read_levels: run past block end", run_at);
    }
    levels[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(pos)])] = br.get_se();
    ++pos;
  }
  return levels;
}

}  // namespace dcsr::codec

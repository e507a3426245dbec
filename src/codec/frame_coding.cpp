#include "codec/frame_coding.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "codec/bits.hpp"
#include "codec/block_coder.hpp"
#include "codec/errors.hpp"
#include "codec/motion.hpp"
#include "util/alloc_check.hpp"

namespace dcsr::codec {

namespace {

// Largest half-pel motion-vector magnitude a decoder will accept. Real
// streams stay within 2 * search_range (tens of pels); this bound only
// exists so an adversarial get_se value cannot drive `2 * (bx + x) + mv.x`
// into signed-integer overflow inside the prediction loops.
constexpr std::int32_t kMaxMv = 1 << 18;

void check_mv(MotionVector mv, std::size_t bit_offset) {
  if (mv.x < -kMaxMv || mv.x > kMaxMv || mv.y < -kMaxMv || mv.y > kMaxMv) {
    AllocAllowScope allow;
    throw BitstreamError("decode: motion vector out of range", bit_offset);
  }
}

// Chroma motion vector: the luma half-pel MV halved (chroma planes are half
// resolution, so this keeps half-pel units in the chroma domain). Arithmetic
// shift gives consistent floor semantics between encoder and decoder.
MotionVector chroma_mv(MotionVector mv) noexcept {
  return {mv.x >> 1, mv.y >> 1};
}

// ---- Intra -----------------------------------------------------------------
//
// Spatial intra prediction per 8x8 block, H.264-style: DC (mean of the
// reconstructed neighbours), vertical (copy the row above), or horizontal
// (copy the column to the left). The encoder picks the SAD-minimising
// available mode and signals it in 2 bits; the residual goes through the
// usual transform path.

enum class IntraMode : std::uint8_t { kDc = 0, kVertical = 1, kHorizontal = 2 };

// Neighbour availability is the caller's policy: `top` is restricted to the
// block's own macroblock row so reconstruction cannot depend on how rows
// were grouped into slices.
Block8 predict_intra(const Plane& recon, int bx, int by, IntraMode mode,
                     bool top, bool left) {
  Block8 pred{};
  switch (mode) {
    case IntraMode::kDc: {
      float acc = 0.0f;
      int n = 0;
      if (top)
        for (int x = 0; x < 8; ++x) {
          acc += recon.at(bx + x, by - 1);
          ++n;
        }
      if (left)
        for (int y = 0; y < 8; ++y) {
          acc += recon.at(bx - 1, by + y);
          ++n;
        }
      const float dc = n > 0 ? acc / static_cast<float>(n) : 0.5f;
      for (auto& v : pred) v = dc;
      break;
    }
    case IntraMode::kVertical:
      for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
          pred[static_cast<std::size_t>(y * 8 + x)] = recon.at(bx + x, by - 1);
      break;
    case IntraMode::kHorizontal:
      for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
          pred[static_cast<std::size_t>(y * 8 + x)] = recon.at(bx - 1, by + y);
      break;
  }
  return pred;
}

// Codes the 8x8 block rows covering pixel rows [y0, y1). `mb_row_px` is the
// plane's macroblock-row height: the row above is only readable from inside
// the same macroblock row (`by % mb_row_px != 0`). The restriction is what
// makes sliced reconstruction independent of the slice count — prediction
// never crosses an MB-row boundary, however the rows are grouped.
void encode_plane_intra_rows(const Plane& src, Plane& recon, const Quantizer& q,
                             BitWriter& bw, int y0, int y1, int mb_row_px) {
  for (int by = y0; by < y1; by += 8) {
    const bool top = by % mb_row_px != 0;
    for (int bx = 0; bx < src.width(); bx += 8) {
      const bool left = bx > 0;
      const Block8 block = extract_block(src, bx, by);

      // Pick the best available prediction mode by SAD.
      IntraMode best_mode = IntraMode::kDc;
      Block8 best_pred = predict_intra(recon, bx, by, IntraMode::kDc, top, left);
      float best_sad = 0.0f;
      for (int i = 0; i < 64; ++i)
        best_sad += std::abs(block[static_cast<std::size_t>(i)] - best_pred[static_cast<std::size_t>(i)]);
      auto consider = [&](IntraMode mode) {
        const Block8 pred = predict_intra(recon, bx, by, mode, top, left);
        float sad = 0.0f;
        for (int i = 0; i < 64; ++i)
          sad += std::abs(block[static_cast<std::size_t>(i)] - pred[static_cast<std::size_t>(i)]);
        if (sad < best_sad) {
          best_sad = sad;
          best_mode = mode;
          best_pred = pred;
        }
      };
      if (top) consider(IntraMode::kVertical);
      if (left) consider(IntraMode::kHorizontal);

      Block8 residual = block;
      for (int i = 0; i < 64; ++i) residual[static_cast<std::size_t>(i)] -= best_pred[static_cast<std::size_t>(i)];
      const Levels8 levels = forward_block(residual, q, /*intra=*/true);

      bw.put_bits(static_cast<std::uint32_t>(best_mode), 2);
      write_levels(bw, levels);

      Block8 rec = reconstruct_block(levels, q, /*intra=*/true);
      for (int i = 0; i < 64; ++i) {
        rec[static_cast<std::size_t>(i)] += best_pred[static_cast<std::size_t>(i)];
        rec[static_cast<std::size_t>(i)] = std::clamp(rec[static_cast<std::size_t>(i)], 0.0f, 1.0f);
      }
      store_block(recon, bx, by, rec);
    }
  }
}

// Decodes what encode_plane_intra_rows codes.
void decode_plane_intra_rows(Plane& out, const Quantizer& q, BitReader& br,
                             int y0, int y1, int mb_row_px) {
  for (int by = y0; by < y1; by += 8) {
    const bool top = by % mb_row_px != 0;
    for (int bx = 0; bx < out.width(); bx += 8) {
      const bool left = bx > 0;
      const std::size_t mode_at = br.bits_consumed();
      const std::uint32_t mode_bits = br.get_bits(2);
      if (mode_bits > 2) {
        AllocAllowScope allow;
        throw BitstreamError("decode: bad intra prediction mode", mode_at);
      }
      const auto mode = static_cast<IntraMode>(mode_bits);
      // The encoder only signals a directional mode when the neighbour it
      // reads exists; a corrupted stream can claim one anyway, which would
      // read past the plane's edge (row -1 / column -1) — or, in a sliced
      // stream, across an MB-row boundary another slice owns.
      if ((mode == IntraMode::kVertical && !top) ||
          (mode == IntraMode::kHorizontal && !left)) {
        AllocAllowScope allow;
        throw BitstreamError(
            "decode: intra mode references a missing neighbour", mode_at);
      }
      const Block8 pred = predict_intra(out, bx, by, mode, top, left);
      const Levels8 levels = read_levels(br);
      Block8 rec = reconstruct_block(levels, q, /*intra=*/true);
      for (int i = 0; i < 64; ++i) {
        rec[static_cast<std::size_t>(i)] += pred[static_cast<std::size_t>(i)];
        rec[static_cast<std::size_t>(i)] = std::clamp(rec[static_cast<std::size_t>(i)], 0.0f, 1.0f);
      }
      store_block(out, bx, by, rec);
    }
  }
}

// ---- Inter macroblock helpers ----------------------------------------------

// The six 8x8 blocks of one macroblock: 4 luma + U + V.
struct MbLevels {
  std::array<Levels8, 6> blocks;

  bool all_zero() const noexcept {
    for (const auto& b : blocks)
      if (!codec::all_zero(b)) return false;
    return true;
  }
};

struct MbPred {
  Block8 luma[4];  // (0,0) (8,0) (0,8) (8,8) offsets within the MB
  Block8 u, v;
};

constexpr int kLumaOff[4][2] = {{0, 0}, {8, 0}, {0, 8}, {8, 8}};

// Builds the motion-compensated prediction of one MB from a single
// reference: its six 8x8 blocks through predict_block_halfpel. `mv` is in
// half-pel units.
MbPred predict_mb(const FrameYUV& ref, int mbx, int mby, MotionVector mv) {
  MbPred p;
  for (int i = 0; i < 4; ++i)
    predict_block_halfpel(ref.y, mbx + kLumaOff[i][0], mby + kLumaOff[i][1],
                          8, mv, p.luma[i].data(), 8);
  const MotionVector cmv = chroma_mv(mv);
  predict_block_halfpel(ref.u, mbx / 2, mby / 2, 8, cmv, p.u.data(), 8);
  predict_block_halfpel(ref.v, mbx / 2, mby / 2, 8, cmv, p.v.data(), 8);
  return p;
}

// Averages two single-reference predictions (bidirectional mode).
MbPred average_pred(const MbPred& a, const MbPred& b) {
  MbPred p;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 64; ++j)
      p.luma[i][static_cast<std::size_t>(j)] =
          0.5f * (a.luma[i][static_cast<std::size_t>(j)] + b.luma[i][static_cast<std::size_t>(j)]);
  for (int j = 0; j < 64; ++j) {
    p.u[static_cast<std::size_t>(j)] = 0.5f * (a.u[static_cast<std::size_t>(j)] + b.u[static_cast<std::size_t>(j)]);
    p.v[static_cast<std::size_t>(j)] = 0.5f * (a.v[static_cast<std::size_t>(j)] + b.v[static_cast<std::size_t>(j)]);
  }
  return p;
}

// Quantises the residual (src - pred) of a whole MB.
MbLevels quantize_mb(const FrameYUV& src, const MbPred& pred, int mbx, int mby,
                     const Quantizer& q) {
  MbLevels out;
  for (int i = 0; i < 4; ++i) {
    const int bx = mbx + kLumaOff[i][0], by = mby + kLumaOff[i][1];
    Block8 res = extract_block(src.y, bx, by);
    for (int j = 0; j < 64; ++j) res[static_cast<std::size_t>(j)] -= pred.luma[i][static_cast<std::size_t>(j)];
    out.blocks[static_cast<std::size_t>(i)] = forward_block(res, q, /*intra=*/false);
  }
  const int cx = mbx / 2, cy = mby / 2;
  Block8 res_u = extract_block(src.u, cx, cy);
  Block8 res_v = extract_block(src.v, cx, cy);
  for (int j = 0; j < 64; ++j) {
    res_u[static_cast<std::size_t>(j)] -= pred.u[static_cast<std::size_t>(j)];
    res_v[static_cast<std::size_t>(j)] -= pred.v[static_cast<std::size_t>(j)];
  }
  out.blocks[4] = forward_block(res_u, q, false);
  out.blocks[5] = forward_block(res_v, q, false);
  return out;
}

void write_mb_levels(BitWriter& bw, const MbLevels& lv) {
  for (const auto& b : lv.blocks) write_levels(bw, b);
}

MbLevels read_mb_levels(BitReader& br) {
  MbLevels lv;
  for (auto& b : lv.blocks) b = read_levels(br);
  return lv;
}

// Writes pred + dequantised residual into the reconstruction frame.
void reconstruct_mb(FrameYUV& recon, const MbPred& pred, const MbLevels& lv,
                    int mbx, int mby, const Quantizer& q) {
  for (int i = 0; i < 4; ++i) {
    Block8 res = reconstruct_block(lv.blocks[static_cast<std::size_t>(i)], q, false);
    for (int j = 0; j < 64; ++j) res[static_cast<std::size_t>(j)] += pred.luma[i][static_cast<std::size_t>(j)];
    store_block(recon.y, mbx + kLumaOff[i][0], mby + kLumaOff[i][1], res);
  }
  Block8 ru = reconstruct_block(lv.blocks[4], q, false);
  Block8 rv = reconstruct_block(lv.blocks[5], q, false);
  for (int j = 0; j < 64; ++j) {
    ru[static_cast<std::size_t>(j)] += pred.u[static_cast<std::size_t>(j)];
    rv[static_cast<std::size_t>(j)] += pred.v[static_cast<std::size_t>(j)];
  }
  store_block(recon.u, mbx / 2, mby / 2, ru);
  store_block(recon.v, mbx / 2, mby / 2, rv);
}

// Copies the prediction as-is (skip mode reconstruction).
void reconstruct_mb_skip(FrameYUV& recon, const MbPred& pred, int mbx, int mby) {
  for (int i = 0; i < 4; ++i)
    store_block(recon.y, mbx + kLumaOff[i][0], mby + kLumaOff[i][1], pred.luma[i]);
  store_block(recon.u, mbx / 2, mby / 2, pred.u);
  store_block(recon.v, mbx / 2, mby / 2, pred.v);
}

// ---- Slice substream framing -----------------------------------------------
//
// Each slice substream opens with a resync header: an 8-bit marker byte
// (0x5c) followed by ue(first_mb_row) and ue(mb_row_count). The geometry is
// redundant with the canonical partition — the reader validates it rather
// than trusting it, so a stream whose slices disagree with the partition
// fails loudly instead of writing rows another slice owns.

constexpr std::uint32_t kSliceMarker = 0x5c;

void write_slice_header(BitWriter& bw, SliceSpan s) {
  bw.put_bits(kSliceMarker, 8);
  bw.put_ue(static_cast<std::uint32_t>(s.first_mb_row));
  bw.put_ue(static_cast<std::uint32_t>(s.mb_row_count));
}

void read_slice_header(BitReader& br, SliceSpan expect) {
  const std::size_t marker_at = br.bits_consumed();
  if (br.get_bits(8) != kSliceMarker) {
    AllocAllowScope allow;
    throw BitstreamError("decode: bad slice resync marker", marker_at);
  }
  const std::size_t rows_at = br.bits_consumed();
  const std::uint32_t first = br.get_ue();
  const std::uint32_t count = br.get_ue();
  if (first != static_cast<std::uint32_t>(expect.first_mb_row) ||
      count != static_cast<std::uint32_t>(expect.mb_row_count)) {
    AllocAllowScope allow;
    throw BitstreamError(
        "decode: slice geometry disagrees with the canonical partition",
        rows_at);
  }
}

float pred_sad(const FrameYUV& src, const MbPred& pred, int mbx, int mby) {
  float acc = 0.0f;
  for (int i = 0; i < 4; ++i) {
    const Block8 block =
        extract_block(src.y, mbx + kLumaOff[i][0], mby + kLumaOff[i][1]);
    for (int j = 0; j < 64; ++j)
      acc += std::abs(block[static_cast<std::size_t>(j)] -
                      pred.luma[i][static_cast<std::size_t>(j)]);
  }
  return acc;
}

// The half-pel motion vector of the macroblock at (mbx, mby) against `ref`:
// a three-step full-pel luma search, refined to half pel.
MotionVector search_mv(const FrameYUV& src, const FrameYUV& ref, int mbx,
                       int mby, int search_range) {
  const MotionVector full =
      motion_search(src.y, ref.y, mbx, mby, 16, search_range);
  return refine_halfpel(src.y, ref.y, mbx, mby, 16, {2 * full.x, 2 * full.y});
}

// ---- P frame ---------------------------------------------------------------

// Codes macroblock rows [r0, r1) of a P frame. The MV predictor resets at
// every MB row (decoder mirrors it), so row ranges are self-contained.
void encode_p_rows(const FrameYUV& src, const FrameYUV& ref, FrameYUV& recon,
                   const Quantizer& q, int search_range, int r0, int r1,
                   BitWriter& bw) {
  for (int mby = 16 * r0; mby < 16 * r1; mby += 16) {
    MotionVector pred_mv{0, 0};  // reset at each MB row; decoder mirrors this
    for (int mbx = 0; mbx < src.width(); mbx += 16) {
      const MotionVector mv = search_mv(src, ref, mbx, mby, search_range);
      const MbPred pred = predict_mb(ref, mbx, mby, mv);
      const MbLevels levels = quantize_mb(src, pred, mbx, mby, q);

      const bool skip =
          mv.x == pred_mv.x && mv.y == pred_mv.y && levels.all_zero();
      bw.put_bit(skip);
      if (skip) {
        reconstruct_mb_skip(recon, pred, mbx, mby);
      } else {
        bw.put_se(mv.x - pred_mv.x);
        bw.put_se(mv.y - pred_mv.y);
        write_mb_levels(bw, levels);
        reconstruct_mb(recon, pred, levels, mbx, mby, q);
      }
      pred_mv = mv;
    }
  }
}

void decode_p_rows(FrameYUV& out, const FrameYUV& ref, const Quantizer& q,
                   int r0, int r1, BitReader& br) {
  for (int mby = 16 * r0; mby < 16 * r1; mby += 16) {
    MotionVector pred_mv{0, 0};
    for (int mbx = 0; mbx < out.width(); mbx += 16) {
      const bool skip = br.get_bit();
      MotionVector mv = pred_mv;
      if (skip) {
        const MbPred pred = predict_mb(ref, mbx, mby, mv);
        reconstruct_mb_skip(out, pred, mbx, mby);
      } else {
        const std::size_t mv_at = br.bits_consumed();
        mv.x = pred_mv.x + br.get_se();
        mv.y = pred_mv.y + br.get_se();
        check_mv(mv, mv_at);
        const MbPred pred = predict_mb(ref, mbx, mby, mv);
        const MbLevels levels = read_mb_levels(br);
        reconstruct_mb(out, pred, levels, mbx, mby, q);
      }
      pred_mv = mv;
    }
  }
}

// ---- B frame ---------------------------------------------------------------

enum class BMode : std::uint8_t { kForward = 0, kBackward = 1, kBi = 2 };

// Codes macroblock rows [r0, r1) of a B frame. B macroblocks carry absolute
// MVs (no cross-MB predictor), so row ranges are naturally self-contained.
void encode_b_rows(const FrameYUV& src, const FrameYUV& ref_past,
                   const FrameYUV& ref_future, FrameYUV& recon,
                   const Quantizer& q, int search_range, int r0, int r1,
                   BitWriter& bw) {
  for (int mby = 16 * r0; mby < 16 * r1; mby += 16) {
    for (int mbx = 0; mbx < src.width(); mbx += 16) {
      const MotionVector mv0 =
          search_mv(src, ref_past, mbx, mby, search_range);
      const MotionVector mv1 =
          search_mv(src, ref_future, mbx, mby, search_range);
      const MbPred p0 = predict_mb(ref_past, mbx, mby, mv0);
      const MbPred p1 = predict_mb(ref_future, mbx, mby, mv1);
      const MbPred pbi = average_pred(p0, p1);

      // Zero-MV bidirectional skip test first: the dominant mode on the
      // static content B frames thrive on.
      const MbPred pskip = average_pred(predict_mb(ref_past, mbx, mby, {0, 0}),
                                        predict_mb(ref_future, mbx, mby, {0, 0}));
      const MbLevels skip_levels = quantize_mb(src, pskip, mbx, mby, q);
      if (skip_levels.all_zero()) {
        bw.put_bit(true);
        reconstruct_mb_skip(recon, pskip, mbx, mby);
        continue;
      }
      bw.put_bit(false);

      const float sad0 = pred_sad(src, p0, mbx, mby);
      const float sad1 = pred_sad(src, p1, mbx, mby);
      const float sadbi = pred_sad(src, pbi, mbx, mby) + 0.5f;  // 2nd MV cost
      BMode mode = BMode::kBi;
      const MbPred* pred = &pbi;
      if (sad0 <= sad1 && sad0 <= sadbi) {
        mode = BMode::kForward;
        pred = &p0;
      } else if (sad1 <= sadbi) {
        mode = BMode::kBackward;
        pred = &p1;
      }
      bw.put_bits(static_cast<std::uint32_t>(mode), 2);
      if (mode != BMode::kBackward) {
        bw.put_se(mv0.x);
        bw.put_se(mv0.y);
      }
      if (mode != BMode::kForward) {
        bw.put_se(mv1.x);
        bw.put_se(mv1.y);
      }
      const MbLevels levels = quantize_mb(src, *pred, mbx, mby, q);
      write_mb_levels(bw, levels);
      reconstruct_mb(recon, *pred, levels, mbx, mby, q);
    }
  }
}

void decode_b_rows(FrameYUV& out, const FrameYUV& ref_past,
                   const FrameYUV& ref_future, const Quantizer& q, int r0,
                   int r1, BitReader& br) {
  for (int mby = 16 * r0; mby < 16 * r1; mby += 16) {
    for (int mbx = 0; mbx < out.width(); mbx += 16) {
      const bool skip = br.get_bit();
      if (skip) {
        const MbPred pred =
            average_pred(predict_mb(ref_past, mbx, mby, {0, 0}),
                         predict_mb(ref_future, mbx, mby, {0, 0}));
        reconstruct_mb_skip(out, pred, mbx, mby);
        continue;
      }
      const std::size_t mode_at = br.bits_consumed();
      const std::uint32_t mode_bits = br.get_bits(2);
      // Mode 3 has no meaning; before this guard it fell through the switch
      // below and reconstructed from an uninitialised MbPred.
      if (mode_bits > 2) {
        AllocAllowScope allow;
        throw BitstreamError("decode: bad B-frame prediction mode", mode_at);
      }
      const auto mode = static_cast<BMode>(mode_bits);
      MotionVector mv0{0, 0}, mv1{0, 0};
      if (mode != BMode::kBackward) {
        const std::size_t mv_at = br.bits_consumed();
        mv0.x = br.get_se();
        mv0.y = br.get_se();
        check_mv(mv0, mv_at);
      }
      if (mode != BMode::kForward) {
        const std::size_t mv_at = br.bits_consumed();
        mv1.x = br.get_se();
        mv1.y = br.get_se();
        check_mv(mv1, mv_at);
      }
      MbPred pred;
      switch (mode) {
        case BMode::kForward: pred = predict_mb(ref_past, mbx, mby, mv0); break;
        case BMode::kBackward: pred = predict_mb(ref_future, mbx, mby, mv1); break;
        case BMode::kBi:
          pred = average_pred(predict_mb(ref_past, mbx, mby, mv0),
                              predict_mb(ref_future, mbx, mby, mv1));
          break;
      }
      const MbLevels levels = read_mb_levels(br);
      reconstruct_mb(out, pred, levels, mbx, mby, q);
    }
  }
}


// ---- Frame type ------------------------------------------------------------
//
// The one place a frame type picks its row coder and the references it
// reads: P the newer one, B both, I neither. Intra blocks clamp as they are
// stored (later blocks predict from them); inter rows clamp once coded.

void require_refs(FrameType type, FrameRefs refs) {
  if ((type != FrameType::kI && refs.newer == nullptr) ||
      (type == FrameType::kB && refs.older == nullptr)) {
    AllocAllowScope allow;
    throw std::invalid_argument("codec: " + to_string(type) +
                                " frame without the reference it reads");
  }
}

// Clamps macroblock rows [r0, r1) of every plane to [0, 1] — the per-slice
// spelling of Plane::clamp01, touching only rows the slice owns.
void clamp_mb_rows(FrameYUV& f, int r0, int r1) {
  const auto clamp_rows = [](Plane& p, int y0, int y1) {
    for (int y = y0; y < y1; ++y)
      for (int x = 0; x < p.width(); ++x)
        p.at(x, y) = std::clamp(p.at(x, y), 0.0f, 1.0f);
  };
  clamp_rows(f.y, 16 * r0, 16 * r1);
  clamp_rows(f.u, 8 * r0, 8 * r1);
  clamp_rows(f.v, 8 * r0, 8 * r1);
}

void encode_rows(FrameType type, const FrameYUV& src, FrameRefs refs,
                 FrameYUV& recon, const Quantizer& q, int search_range,
                 int r0, int r1, BitWriter& bw) {
  switch (type) {
    case FrameType::kI:
      encode_plane_intra_rows(src.y, recon.y, q, bw, 16 * r0, 16 * r1, 16);
      encode_plane_intra_rows(src.u, recon.u, q, bw, 8 * r0, 8 * r1, 8);
      encode_plane_intra_rows(src.v, recon.v, q, bw, 8 * r0, 8 * r1, 8);
      return;
    case FrameType::kP:
      encode_p_rows(src, *refs.newer, recon, q, search_range, r0, r1, bw);
      break;
    case FrameType::kB:
      encode_b_rows(src, *refs.older, *refs.newer, recon, q, search_range, r0,
                    r1, bw);
      break;
  }
  clamp_mb_rows(recon, r0, r1);
}

void decode_rows(FrameType type, FrameYUV& out, FrameRefs refs,
                 const Quantizer& q, int r0, int r1, BitReader& br) {
  switch (type) {
    case FrameType::kI:
      decode_plane_intra_rows(out.y, q, br, 16 * r0, 16 * r1, 16);
      decode_plane_intra_rows(out.u, q, br, 8 * r0, 8 * r1, 8);
      decode_plane_intra_rows(out.v, q, br, 8 * r0, 8 * r1, 8);
      return;
    case FrameType::kP:
      decode_p_rows(out, *refs.newer, q, r0, r1, br);
      break;
    case FrameType::kB:
      decode_b_rows(out, *refs.older, *refs.newer, q, r0, r1, br);
      break;
  }
  clamp_mb_rows(out, r0, r1);
}

}  // namespace

// ---- Slice partition -------------------------------------------------------

void slice_partition(int mb_rows, int slices, std::vector<SliceSpan>& out) {
  const int n = std::clamp(slices, 1, mb_rows);
  out.clear();
  out.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    const int r0 = s * mb_rows / n;
    const int r1 = (s + 1) * mb_rows / n;
    out.push_back({r0, r1 - r0});
  }
}

// ---- Frames and slices -----------------------------------------------------

FrameYUV encode_frame(FrameType type, const FrameYUV& src, FrameRefs refs,
                      const Quantizer& q, int search_range, int slices,
                      EncodedFrame& frame) {
  if (src.width() % 16 != 0 || src.height() % 16 != 0)
    throw std::invalid_argument("codec: frame dimensions must be multiples of 16");
  require_refs(type, refs);
  frame.type = type;
  FrameYUV recon(src.width(), src.height());
  std::vector<SliceSpan> spans;
  slice_partition(src.height() / 16, slices, spans);
  for (const SliceSpan s : spans) {
    BitWriter bw;
    write_slice_header(bw, s);
    encode_rows(type, src, refs, recon, q, search_range, s.first_mb_row,
                s.first_mb_row + s.mb_row_count, bw);
    const std::vector<std::uint8_t> bytes = bw.finish();
    frame.slice_sizes.push_back(static_cast<std::uint32_t>(bytes.size()));
    frame.payload.insert(frame.payload.end(), bytes.begin(), bytes.end());
  }
  return recon;
}

void decode_slice(FrameType type, FrameYUV& out, FrameRefs refs,
                  const Quantizer& q, const std::uint8_t* data,
                  std::size_t size, SliceSpan expect) {
  require_refs(type, refs);
  BitReader br(data, size);
  read_slice_header(br, expect);
  decode_rows(type, out, refs, q, expect.first_mb_row,
              expect.first_mb_row + expect.mb_row_count, br);
}

}  // namespace dcsr::codec

#pragma once

#include <cstdint>
#include <vector>

#include "codec/quant.hpp"
#include "codec/types.hpp"
#include "image/frame.hpp"

namespace dcsr::codec {

/// Frame-level coding primitives shared by the encoder (which also plays the
/// role of its own reference decoder — a closed coding loop, as in any real
/// codec) and the standalone decoder. Encode functions return the
/// *reconstruction* (what the decoder will see), never the pristine source.
///
/// Luma dimensions must be multiples of 16 (one macroblock); chroma is 4:2:0.

// ---- Macroblock-row slices --------------------------------------------------

/// One slice: macroblock rows [first_mb_row, first_mb_row + mb_row_count).
/// Slices are full-width bands of whole MB rows, so a frame's slices tile its
/// planes into disjoint pixel-row ranges.
struct SliceSpan {
  int first_mb_row = 0;
  int mb_row_count = 0;
};

/// Canonical partition of `mb_rows` (>= 1) MB rows into `slices` slices,
/// written into `out`: slice s of S covers rows [s*R/S, (s+1)*R/S). `slices`
/// is clamped to [1, mb_rows], so every slice is non-empty. `out` is cleared
/// and refilled in its existing capacity, so a warm vector stays off the
/// heap. Encoder and decoder both derive geometry from this function; slice
/// headers carry it redundantly and are validated.
void slice_partition(int mb_rows, int slices, std::vector<SliceSpan>& out);

/// The references a frame is coded against, in display order: `older`
/// precedes `newer`. A P frame reads `newer`, a B frame reads both, an I
/// frame neither.
struct FrameRefs {
  const FrameYUV* older = nullptr;
  const FrameYUV* newer = nullptr;
};

/// Codes `src` as a frame of `type` against `refs`, sets `frame.type`,
/// appends one substream per slice to `frame.payload` (lengths in
/// `frame.slice_sizes`) and returns the reconstruction. Each substream is
/// independently decodable and byte-aligned: a resync header (marker byte
/// 0x5c + ue(first_mb_row) + ue(mb_row_count)), then the slice's MB rows.
/// No prediction state crosses an MB-row boundary (intra blocks read only
/// their own MB row; the P-frame MV predictor resets per MB row), so the
/// reconstruction is bit-identical for every slice count and the decoder
/// may run slices concurrently. P and B run a three-step motion search
/// refined to half pel; B picks forward, backward or bidirectional
/// prediction per macroblock. A missing reference throws
/// std::invalid_argument before `frame` is touched.
FrameYUV encode_frame(FrameType type, const FrameYUV& src, FrameRefs refs,
                      const Quantizer& q, int search_range, int slices,
                      EncodedFrame& frame);

/// Decodes one slice substream of a frame of `type` into the rows of `out`
/// it owns. `expect` is the slice's canonical partition entry. A header that
/// disagrees (bad marker, wrong geometry) throws BitstreamError, and a
/// missing reference std::invalid_argument, before any pixel is written.
/// Each call touches only its own rows, so callers may decode a frame's
/// slices concurrently into one output frame.
void decode_slice(FrameType type, FrameYUV& out, FrameRefs refs,
                  const Quantizer& q, const std::uint8_t* data,
                  std::size_t size, SliceSpan expect);

}  // namespace dcsr::codec

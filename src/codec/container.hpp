#pragma once

#include "codec/types.hpp"
#include "util/serialize.hpp"

namespace dcsr::codec {

/// Container (de)serialisation for encoded videos — the ".dcv" format. A
/// stream written by one process can be decoded by another, which is what
/// separates a codec library from an in-memory toy. The layout is
/// length-prefixed and versioned; a CRC-32 over the payload catches
/// truncation and corruption at load time.
///
///   magic "dcV3" | width | height | fps | crf | deblock | segment count
///   per segment: first_frame | crf | frame count
///     per frame: type | display_index
///                | slice count (>= 1) | slice sizes
///                | payload size | payload bytes
///   crc32 of everything above
///
/// Every frame carries its macroblock-row slice table (slices decode
/// concurrently). The reader rejects older versions (v1, and v2's sliceless
/// frames) by name, and a frame whose slice table is empty.
///
/// The writer holds every frame to the reader's slice-table rules (at least
/// one slice, slice sizes summing to the payload size) and throws
/// std::invalid_argument naming the segment and frame otherwise, so it
/// cannot write a slice table its own reader rejects. `out` is untouched on
/// a throw.
void write_container(const EncodedVideo& video, ByteWriter& out);

/// Parses a container; throws std::invalid_argument on bad magic, version,
/// CRC mismatch, or structural nonsense (so corrupted downloads fail loudly
/// rather than decode garbage).
EncodedVideo read_container(ByteReader& in);

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte range.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept;

}  // namespace dcsr::codec

#include "codec/container.hpp"

#include <array>
#include <climits>
#include <stdexcept>
#include <string>

#include "codec/errors.hpp"

namespace dcsr::codec {

namespace {

// Bumped whenever the layout changes (v2 added per-segment CRF and the
// loop-filter flag; v3 added per-frame macroblock-row slice tables). Older
// files fail at the magic check with an error that names their version,
// instead of a confusing CRC mismatch downstream.
constexpr std::uint32_t kMagic = 0x64635633;  // "dcV3"

// A frame can't have more slices than a 16384-pixel-tall frame has MB rows.
constexpr std::uint32_t kMaxSlices = 16384 / 16;

std::array<std::uint32_t, 256> make_crc_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

// The slice-table rules read_container enforces, checked on the way out.
void check_slice_table(const EncodedFrame& f, std::size_t segment,
                       std::size_t frame) {
  std::uint64_t total = 0;
  for (const auto s : f.slice_sizes) total += s;
  if (!f.slice_sizes.empty() && total == f.payload.size()) return;
  const std::string problem =
      f.slice_sizes.empty()
          ? "frame without slices"
          : "slice sizes sum to " + std::to_string(total) +
                " bytes, payload has " + std::to_string(f.payload.size());
  throw std::invalid_argument("write_container: segment " + std::to_string(segment) +
                              " frame " + std::to_string(frame) + ": " + problem);
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept {
  static const std::array<std::uint32_t, 256> kTable = make_crc_table();
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i)
    c = kTable[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void write_container(const EncodedVideo& video, ByteWriter& out) {
  ByteWriter body;
  body.write_u32(kMagic);
  body.write_u32(static_cast<std::uint32_t>(video.width));
  body.write_u32(static_cast<std::uint32_t>(video.height));
  body.write_f64(video.fps);
  body.write_u32(static_cast<std::uint32_t>(video.crf));
  body.write_u8(video.deblock ? 1 : 0);
  body.write_u32(static_cast<std::uint32_t>(video.segments.size()));
  for (std::size_t si = 0; si < video.segments.size(); ++si) {
    const EncodedSegment& seg = video.segments[si];
    body.write_u32(static_cast<std::uint32_t>(seg.first_frame));
    body.write_i32(seg.crf);
    body.write_u32(static_cast<std::uint32_t>(seg.frames.size()));
    for (std::size_t fi = 0; fi < seg.frames.size(); ++fi) {
      const EncodedFrame& f = seg.frames[fi];
      check_slice_table(f, si, fi);
      body.write_u8(static_cast<std::uint8_t>(f.type));
      body.write_u32(static_cast<std::uint32_t>(f.display_index));
      // Slice table first, then the concatenated substream bytes.
      body.write_u32(static_cast<std::uint32_t>(f.slice_sizes.size()));
      for (const auto s : f.slice_sizes) body.write_u32(s);
      body.write_u32(static_cast<std::uint32_t>(f.payload.size()));
      for (const auto b : f.payload) body.write_u8(b);
    }
  }
  const auto& bytes = body.bytes();
  const std::uint32_t crc = crc32(bytes.data(), bytes.size());
  for (const auto b : bytes) out.write_u8(b);
  out.write_u32(crc);
}

EncodedVideo read_container(ByteReader& in) {
  const std::size_t magic_at = in.position();
  const std::uint32_t magic = in.read_u32();
  if (magic == 0x64635631 || magic == 0x64635632) {  // "dcV1", "dcV2"
    const char version = static_cast<char>(magic & 0xffu);
    throw ContainerError(std::string("read_container: v") + version +
                             " container (this build reads v3 only; re-encode)",
                         magic_at);
  }
  if (magic != kMagic)
    throw ContainerError("read_container: bad magic", magic_at);

  EncodedVideo video;
  const std::size_t dims_at = in.position();
  video.width = static_cast<int>(in.read_u32());
  video.height = static_cast<int>(in.read_u32());
  video.fps = in.read_f64();
  video.crf = static_cast<int>(in.read_u32());
  video.deblock = in.read_u8() != 0;
  if (video.width <= 0 || video.height <= 0 || video.width > 16384 ||
      video.height > 16384)
    throw ContainerError("read_container: implausible dimensions", dims_at);

  const std::size_t n_segments_at = in.position();
  const std::uint32_t n_segments = in.read_u32();
  if (n_segments > 1u << 20)
    throw ContainerError("read_container: implausible segment count",
                         n_segments_at);
  video.segments.reserve(n_segments);
  for (std::uint32_t s = 0; s < n_segments; ++s) {
    EncodedSegment seg;
    const std::size_t first_frame_at = in.position();
    const std::uint32_t first_frame = in.read_u32();
    const std::size_t crf_at = in.position();
    seg.crf = in.read_i32();
    if (seg.crf < -1 || seg.crf > 51)
      throw ContainerError("read_container: bad segment crf", crf_at);
    const std::size_t n_frames_at = in.position();
    const std::uint32_t n_frames = in.read_u32();
    if (n_frames > 1u << 20)
      throw ContainerError("read_container: implausible frame count",
                           n_frames_at);
    // Display indices run below n_frames, so this keeps every absolute
    // frame number first_frame + display_index inside int.
    if (first_frame > static_cast<std::uint32_t>(INT_MAX) - n_frames)
      throw ContainerError("read_container: first frame out of range",
                           first_frame_at);
    seg.first_frame = static_cast<int>(first_frame);
    seg.frames.reserve(n_frames);
    for (std::uint32_t f = 0; f < n_frames; ++f) {
      EncodedFrame frame;
      const std::size_t type_at = in.position();
      const std::uint8_t type = in.read_u8();
      if (type > 2)
        throw ContainerError("read_container: bad frame type", type_at);
      frame.type = static_cast<FrameType>(type);
      frame.display_index = static_cast<int>(in.read_u32());
      const std::size_t slices_at = in.position();
      const std::uint32_t n_slices = in.read_u32();
      if (n_slices == 0)
        throw ContainerError("read_container: frame without slices",
                             slices_at);
      if (n_slices > kMaxSlices)
        throw ContainerError("read_container: implausible slice count",
                             slices_at);
      std::uint64_t slice_total = 0;
      frame.slice_sizes.reserve(n_slices);
      for (std::uint32_t i = 0; i < n_slices; ++i) {
        const std::uint32_t sz = in.read_u32();
        frame.slice_sizes.push_back(sz);
        slice_total += sz;
      }
      const std::size_t size_at = in.position();
      const std::uint32_t size = in.read_u32();
      if (size > in.remaining())
        throw ContainerError("read_container: truncated payload", size_at);
      if (slice_total != size)
        throw ContainerError(
            "read_container: slice sizes disagree with payload size", size_at);
      frame.payload.resize(size);
      for (auto& b : frame.payload) b = in.read_u8();
      seg.frames.push_back(std::move(frame));
    }
    video.segments.push_back(std::move(seg));
  }

  // The CRC covers every byte before it; checksum exactly the bytes consumed
  // from the reader's buffer rather than re-serialising the parsed structure.
  const std::size_t crc_at = in.position();
  const std::uint32_t stored_crc = in.read_u32();
  const std::uint32_t recomputed =
      crc32(in.data() + magic_at, crc_at - magic_at);
  if (recomputed != stored_crc)
    throw ContainerError("read_container: CRC mismatch", crc_at);
  return video;
}

}  // namespace dcsr::codec

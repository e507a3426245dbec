#include "fuzz_harness.hpp"

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <limits>
#include <string>

#include "codec/bits.hpp"
#include "codec/container.hpp"
#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "codec/errors.hpp"
#include "codec/frame_coding.hpp"
#include "codec/quant.hpp"
#include "image/convert.hpp"
#include "stream/errors.hpp"
#include "stream/manifest.hpp"
#include "stream/model_bundle.hpp"
#include "stream/playlist.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "video/genres.hpp"

namespace dcsr::fuzz {

namespace {

using Bytes = std::vector<std::uint8_t>;

// Per-iteration generator: independent of every other iteration, so any
// finding reproduces from (seed, iteration) without replaying the prefix.
Rng iteration_rng(std::uint64_t seed, std::uint64_t iteration) {
  return Rng(seed ^ (0x9e3779b97f4a7c15ULL * (iteration + 1)));
}

// ---- Mutation --------------------------------------------------------------

Bytes mutate(Bytes b, Rng& rng) {
  const int ops = static_cast<int>(rng.uniform_int(1, 4));
  for (int op = 0; op < ops; ++op) {
    switch (rng.uniform_int(0, 5)) {
      case 0:  // flip one bit
        if (!b.empty()) {
          const auto i = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(b.size()) - 1));
          b[i] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        }
        break;
      case 1:  // overwrite one byte
        if (!b.empty()) {
          const auto i = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(b.size()) - 1));
          b[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        break;
      case 2:  // truncate
        b.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(b.size()))));
        break;
      case 3: {  // insert a few random bytes
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(b.size())));
        const int n = static_cast<int>(rng.uniform_int(1, 8));
        Bytes extra;
        for (int i = 0; i < n; ++i)
          extra.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), extra.begin(),
                 extra.end());
        break;
      }
      case 4:  // zero a range
        if (!b.empty()) {
          const auto lo = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(b.size()) - 1));
          const auto hi = std::min(
              b.size(), lo + static_cast<std::size_t>(rng.uniform_int(1, 16)));
          std::fill(b.begin() + static_cast<std::ptrdiff_t>(lo),
                    b.begin() + static_cast<std::ptrdiff_t>(hi), 0);
        }
        break;
      case 5:  // duplicate a slice into a random position
        if (!b.empty()) {
          const auto lo = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(b.size()) - 1));
          const auto len = std::min(
              b.size() - lo, static_cast<std::size_t>(rng.uniform_int(1, 16)));
          const Bytes slice(b.begin() + static_cast<std::ptrdiff_t>(lo),
                            b.begin() + static_cast<std::ptrdiff_t>(lo + len));
          const auto at = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(b.size())));
          b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), slice.begin(),
                   slice.end());
        }
        break;
    }
  }
  return b;
}

// ---- Valid base artefacts --------------------------------------------------
//
// Each harness mutates a *valid* serialised artefact: random bytes die at the
// magic check, but a flipped bit inside a valid stream walks the deep parse
// paths the hardening actually protects.

codec::EncodedVideo base_video(std::uint64_t seed) {
  Rng rng(seed);
  codec::EncodedVideo v;
  v.width = 32;
  v.height = 32;
  v.fps = 30.0;
  v.crf = 30;
  v.deblock = true;
  for (int s = 0; s < 2; ++s) {
    codec::EncodedSegment seg;
    seg.first_frame = s * 3;
    seg.crf = 28 + s;
    for (int f = 0; f < 3; ++f) {
      codec::EncodedFrame frame;
      frame.type = f == 0 ? codec::FrameType::kI : codec::FrameType::kP;
      frame.display_index = f;
      const int n = static_cast<int>(rng.uniform_int(5, 25));
      for (int i = 0; i < n; ++i)
        frame.payload.push_back(
            static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      // One slice per frame, so container mutations also walk the
      // slice-count/size validation.
      frame.slice_sizes = {static_cast<std::uint32_t>(frame.payload.size())};
      seg.frames.push_back(std::move(frame));
    }
    v.segments.push_back(std::move(seg));
  }
  return v;
}

stream::Manifest base_manifest() {
  stream::Manifest m;
  m.model_bytes = {12000, 34000, 56000};
  for (int i = 0; i < 4; ++i)
    m.segments.push_back(
        {i, 30, static_cast<std::uint64_t>(1000 + 37 * i),
         i == 3 ? stream::kNoModel : i % 3});
  return m;
}

stream::ModelBundle base_bundle(std::uint64_t seed) {
  Rng rng(seed);
  stream::ModelBundle b;
  for (int label = 0; label < 3; ++label) {
    Bytes payload;
    const int n = static_cast<int>(rng.uniform_int(8, 64));
    for (int i = 0; i < n; ++i)
      payload.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    b.add(label, std::move(payload));
  }
  return b;
}

}  // namespace

Bytes valid_input(Harness h, std::uint64_t seed) {
  switch (h) {
    case Harness::kBits: {
      // A valid exp-Golomb stream; mutations then shift code boundaries.
      Rng rng(seed);
      codec::BitWriter bw;
      for (int i = 0; i < 24; ++i) {
        bw.put_ue(static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20)));
        bw.put_se(static_cast<std::int32_t>(rng.uniform_int(-(1 << 16), 1 << 16)));
      }
      return bw.finish();
    }
    case Harness::kContainer: {
      ByteWriter w;
      codec::write_container(base_video(seed), w);
      return w.bytes();
    }
    case Harness::kDecoder:
      return {};  // the decoder harness mutates a real encode; see run()
    case Harness::kPlaylist: {
      const std::string text = stream::write_playlist(base_manifest());
      return Bytes(text.begin(), text.end());
    }
    case Harness::kBundle: {
      ByteWriter w;
      base_bundle(seed).serialize(w);
      return w.bytes();
    }
    case Harness::kSlice: {
      // One real single-slice I frame: resync header (marker + geometry)
      // followed by a restricted-intra payload. Mutations walk the marker
      // check, the ue-coded geometry fields, and the entropy loop behind
      // the resync point.
      const auto video = make_genre_video(Genre::kNews, seed, 32, 32, 0.2);
      const codec::Quantizer q(30);
      codec::EncodedFrame ef;
      (void)codec::encode_frame(codec::FrameType::kI,
                                rgb_to_yuv420(video->frame(0)), {}, q, 0, 1,
                                ef);
      return ef.payload;
    }
  }
  return {};
}

namespace {

// ---- Bits writer/reader roundtrip property ---------------------------------

void bits_roundtrip_check(Harness h, std::uint64_t iteration, Rng& rng) {
  struct Op {
    int kind;  // 0 = ue, 1 = se, 2 = raw bits
    std::uint32_t value;
    int width;
  };
  std::vector<Op> ops;
  codec::BitWriter bw;
  const int n = static_cast<int>(rng.uniform_int(1, 32));
  for (int i = 0; i < n; ++i) {
    Op op;
    op.kind = static_cast<int>(rng.uniform_int(0, 2));
    switch (op.kind) {
      case 0:
        op.value = static_cast<std::uint32_t>(rng.next_u64());
        if (op.value == 0xffffffffu) op.value = 0;  // the one unencodable ue
        op.width = 0;
        bw.put_ue(op.value);
        break;
      case 1: {
        auto v = static_cast<std::int32_t>(rng.next_u64());
        if (v == std::numeric_limits<std::int32_t>::min()) v = 0;
        op.value = static_cast<std::uint32_t>(v);
        op.width = 0;
        bw.put_se(v);
        break;
      }
      default:
        op.width = static_cast<int>(rng.uniform_int(1, 32));
        op.value = static_cast<std::uint32_t>(rng.next_u64());
        if (op.width < 32) op.value &= (1u << op.width) - 1;
        bw.put_bits(op.value, op.width);
        break;
    }
    ops.push_back(op);
  }
  const Bytes bytes = bw.finish();
  codec::BitReader br(bytes);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::uint32_t got = 0;
    switch (ops[i].kind) {
      case 0: got = br.get_ue(); break;
      case 1: got = static_cast<std::uint32_t>(br.get_se()); break;
      default: got = br.get_bits(ops[i].width); break;
    }
    if (got != ops[i].value)
      throw FuzzFailure(h, iteration, bytes,
                        "roundtrip mismatch at op " + std::to_string(i) +
                            ": wrote " + std::to_string(ops[i].value) +
                            ", read " + std::to_string(got));
  }
}

// ---- Decoder harness -------------------------------------------------------

codec::EncodedVideo encode_base_video(std::uint64_t seed) {
  const auto video = make_genre_video(Genre::kNews, seed, 32, 32, 0.2);
  codec::CodecConfig cfg;
  cfg.crf = 30;
  cfg.use_b_frames = true;
  const codec::Encoder enc(cfg);
  return enc.encode(*video, {{0, video->frame_count()}});
}

// The corpus shape of the decoder and slice harnesses: the bytes are one
// slice substream, wrapped as a single-slice 32x32 I frame so they run the
// concurrent sliced decode path — resync header first, entropy loop after.
ReplayOutcome replay_single_slice(const Bytes& bytes) {
  try {
    codec::EncodedSegment seg;
    seg.crf = 28;
    codec::EncodedFrame frame;
    frame.type = codec::FrameType::kI;
    frame.payload = bytes;
    frame.slice_sizes = {static_cast<std::uint32_t>(bytes.size())};
    seg.frames.push_back(std::move(frame));
    codec::Decoder dec(32, 32, 28);
    (void)dec.decode_segment(seg);
    return ReplayOutcome::kParsed;
  } catch (const codec::BitstreamError&) {
    return ReplayOutcome::kTypedError;
  } catch (const std::invalid_argument&) {
    return ReplayOutcome::kSafeError;  // reference/display-structure guard
  }
}

// The corpus shape of inter slice files: the bytes are the one slice
// substream of a 32x32 P or B frame, decoded straight through
// codec::decode_slice against two fixed references (ramps of different
// slopes, so a sample read from the wrong place changes the prediction).
ReplayOutcome replay_inter_slice(codec::FrameType type, const Bytes& bytes) {
  static const auto ramp = [](float slope) {
    FrameYUV f(32, 32);
    for (Plane* p : {&f.y, &f.u, &f.v})
      for (int y = 0; y < p->height(); ++y)
        for (int x = 0; x < p->width(); ++x)
          p->at(x, y) = slope * static_cast<float>(x + 2 * y) / 96.0f;
    return f;
  };
  static const FrameYUV older = ramp(0.5f), newer = ramp(1.0f);
  FrameYUV out(32, 32);
  try {
    codec::decode_slice(type, out, {&older, &newer}, codec::Quantizer(28),
                        bytes.data(), bytes.size(), {0, 2});
    return ReplayOutcome::kParsed;
  } catch (const codec::BitstreamError&) {
    return ReplayOutcome::kTypedError;
  }
}

// ---- Slice harness ---------------------------------------------------------

// One real slice substream and the frame type and partition entry it was
// coded with.
struct SliceCase {
  codec::FrameType type;
  codec::SliceSpan span;
  Bytes bytes;
};

// The slice harness's bases: the substreams of one frame coded as each type
// (I, P, B) at each slice count of a 32x32 frame (its 2 MB rows as 1 or 2
// slices), plus the references they were coded against.
struct SliceBases {
  FrameYUV older, newer;  // display order
  std::vector<SliceCase> cases;
};

constexpr int kSliceCrf = 30;

SliceBases encode_slice_bases(std::uint64_t seed) {
  const auto video = make_genre_video(Genre::kNews, seed, 32, 32, 0.2);
  const codec::Quantizer q(kSliceCrf);
  SliceBases b;
  codec::EncodedFrame scratch;
  b.older = codec::encode_frame(codec::FrameType::kI,
                                rgb_to_yuv420(video->frame(0)), {}, q, 0, 1,
                                scratch);
  b.newer = codec::encode_frame(codec::FrameType::kP,
                                rgb_to_yuv420(video->frame(2)),
                                {.newer = &b.older}, q, 8, 1, scratch);
  const FrameYUV src = rgb_to_yuv420(video->frame(1));
  std::vector<codec::SliceSpan> spans;
  for (const codec::FrameType type :
       {codec::FrameType::kI, codec::FrameType::kP, codec::FrameType::kB}) {
    for (const int slices : {1, 2}) {
      codec::EncodedFrame ef;
      (void)codec::encode_frame(type, src, {&b.older, &b.newer}, q, 8, slices,
                                ef);
      codec::slice_partition(2, slices, spans);
      auto at = ef.payload.begin();
      for (std::size_t s = 0; s < spans.size(); ++s) {
        const auto end = at + static_cast<std::ptrdiff_t>(ef.slice_sizes[s]);
        b.cases.push_back({type, spans[s], Bytes(at, end)});
        at = end;
      }
    }
  }
  return b;
}

// Mutates the substream of one random case into `input` and decodes it
// straight through codec::decode_slice against the case's references.
ReplayOutcome fuzz_slice(const SliceBases& b, Rng& rng, Bytes& input) {
  const SliceCase& c = b.cases[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(b.cases.size()) - 1))];
  input = mutate(c.bytes, rng);
  FrameYUV out(32, 32);
  try {
    codec::decode_slice(c.type, out, {&b.older, &b.newer},
                        codec::Quantizer(kSliceCrf), input.data(),
                        input.size(), c.span);
    return ReplayOutcome::kParsed;
  } catch (const codec::BitstreamError&) {
    return ReplayOutcome::kTypedError;
  }
}

}  // namespace

std::vector<Harness> all_harnesses() {
  return {Harness::kBits,     Harness::kContainer, Harness::kDecoder,
          Harness::kPlaylist, Harness::kBundle,    Harness::kSlice};
}

const char* harness_name(Harness h) {
  switch (h) {
    case Harness::kBits: return "bits";
    case Harness::kContainer: return "container";
    case Harness::kDecoder: return "decoder";
    case Harness::kPlaylist: return "playlist";
    case Harness::kBundle: return "bundle";
    case Harness::kSlice: return "slice";
  }
  return "?";
}

std::optional<Harness> harness_from_name(std::string_view name) {
  for (const Harness h : all_harnesses())
    if (name == harness_name(h)) return h;
  return std::nullopt;
}

ReplayOutcome replay(Harness h, const Bytes& bytes) {
  switch (h) {
    case Harness::kBits: {
      // Rotate through the read primitives until the payload is exhausted;
      // a malformed or truncated code must surface as BitstreamError.
      codec::BitReader br(bytes);
      try {
        for (int op = 0;; op = (op + 1) % 4) {
          if (br.bits_consumed() >= 8 * bytes.size()) return ReplayOutcome::kParsed;
          switch (op) {
            case 0: br.get_ue(); break;
            case 1: br.get_se(); break;
            case 2: br.get_bits(13); break;
            default: br.get_bit(); break;
          }
        }
      } catch (const codec::BitstreamError&) {
        return ReplayOutcome::kTypedError;
      }
    }
    case Harness::kContainer:
      try {
        ByteReader r(bytes);
        (void)codec::read_container(r);
        return ReplayOutcome::kParsed;
      } catch (const codec::ContainerError&) {
        return ReplayOutcome::kTypedError;
      } catch (const std::out_of_range&) {
        return ReplayOutcome::kSafeError;  // ByteReader truncation guard
      }
    case Harness::kDecoder:
      // run() additionally mutates whole real segments.
    case Harness::kSlice:
      return replay_single_slice(bytes);
    case Harness::kPlaylist:
      try {
        (void)stream::parse_playlist(std::string(bytes.begin(), bytes.end()));
        return ReplayOutcome::kParsed;
      } catch (const stream::ManifestError&) {
        return ReplayOutcome::kTypedError;
      }
    case Harness::kBundle:
      try {
        ByteReader r(bytes);
        (void)stream::ModelBundle::deserialize(r);
        return ReplayOutcome::kParsed;
      } catch (const stream::BundleError&) {
        return ReplayOutcome::kTypedError;
      } catch (const std::out_of_range&) {
        return ReplayOutcome::kSafeError;
      }
  }
  return ReplayOutcome::kParsed;
}

std::optional<ReplayOutcome> replay_named(std::string_view name,
                                          const Bytes& bytes) {
  if (name.starts_with("slice-p-"))
    return replay_inter_slice(codec::FrameType::kP, bytes);
  if (name.starts_with("slice-b-"))
    return replay_inter_slice(codec::FrameType::kB, bytes);
  for (const Harness h : all_harnesses())
    if (name.starts_with(harness_name(h))) return replay(h, bytes);
  return std::nullopt;
}

FuzzStats run(Harness h, std::uint64_t seed, std::uint64_t iters,
              std::uint64_t start) {
  FuzzStats stats;
  const Bytes base = valid_input(h, seed);
  codec::EncodedVideo encoded;
  if (h == Harness::kDecoder) encoded = encode_base_video(seed);
  SliceBases slice_bases;
  if (h == Harness::kSlice) slice_bases = encode_slice_bases(seed);

  for (std::uint64_t i = start; i < start + iters; ++i) {
    Rng rng = iteration_rng(seed, i);
    ++stats.iterations;

    if (h == Harness::kBits) bits_roundtrip_check(h, i, rng);

    Bytes input;
    ReplayOutcome outcome;
    try {
      if (h == Harness::kDecoder) {
        // Mutate the payloads of one real segment in memory: the container
        // CRC would reject nearly every mutation, so the harness aims past
        // it, straight at the entropy-decode loops.
        const auto s = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(encoded.segments.size()) - 1));
        codec::EncodedSegment seg = encoded.segments[s];
        const int n_mut = static_cast<int>(
            rng.uniform_int(1, static_cast<std::int64_t>(seg.frames.size())));
        for (int m = 0; m < n_mut; ++m) {
          const auto f = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(seg.frames.size()) - 1));
          seg.frames[f].payload = mutate(seg.frames[f].payload, rng);
          if (input.empty()) input = seg.frames[f].payload;
        }
        // Every payload mutation above lands in the sliced path.
        // Additionally corrupt the slice *table* sometimes: size-sum
        // mismatches, impossible slice counts, and an empty table.
        if (rng.uniform_int(0, 3) == 0) {
          const auto f = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(seg.frames.size()) - 1));
          auto& sizes = seg.frames[f].slice_sizes;
          switch (rng.uniform_int(0, 2)) {
            case 0:
              if (!sizes.empty())
                sizes[0] += static_cast<std::uint32_t>(rng.uniform_int(1, 64));
              break;
            case 1:
              sizes.push_back(
                  static_cast<std::uint32_t>(rng.uniform_int(0, 64)));
              break;
            default:
              sizes.clear();
              break;
          }
        }
        try {
          codec::Decoder dec(encoded);
          (void)dec.decode_segment(seg);
          outcome = ReplayOutcome::kParsed;
        } catch (const codec::BitstreamError&) {
          outcome = ReplayOutcome::kTypedError;
        } catch (const std::invalid_argument&) {
          outcome = ReplayOutcome::kSafeError;
        }
      } else if (h == Harness::kSlice) {
        outcome = fuzz_slice(slice_bases, rng, input);
      } else {
        input = mutate(base, rng);
        outcome = replay(h, input);
      }
    } catch (const FuzzFailure&) {
      throw;
    } catch (const std::exception& e) {
      throw FuzzFailure(h, i, input,
                        std::string("unexpected exception: ") + e.what());
    }

    switch (outcome) {
      case ReplayOutcome::kParsed: ++stats.parsed; break;
      case ReplayOutcome::kTypedError: ++stats.typed_errors; break;
      case ReplayOutcome::kSafeError: ++stats.safe_errors; break;
    }
  }
  return stats;
}

std::vector<std::pair<std::string, Bytes>> regression_corpus() {
  std::vector<std::pair<std::string, Bytes>> out;

  // codec/bits: an all-zero prefix longer than 31 bits is not a valid ue
  // code (pre-hardening this reached `1u << 32`, undefined behaviour).
  out.emplace_back("bits-bad-ue-prefix.bin", Bytes(5, 0x00));
  // codec/bits: a stream that ends mid-codeword must throw, not read past.
  out.emplace_back("bits-over-read.bin", Bytes{0x80});

  {  // codec/container: wrong magic.
    ByteWriter w;
    w.write_u32(0x21212121);
    w.write_u32(0);
    out.emplace_back("container-bad-magic.bin", w.bytes());
  }
  {  // codec/container: a v2 file (sliceless frames, no longer read) must
     // be rejected by name at the magic, not parsed as v3.
    ByteWriter w;
    w.write_u32(0x64635632);  // "dcV2"
    w.write_u32(16);          // width
    w.write_u32(16);          // height
    out.emplace_back("container-v2-magic.bin", w.bytes());
  }
  // Header of a 16x16, one-segment, one-I-frame container up to its slice
  // count.
  const auto container_frame_header = [] {
    ByteWriter w;
    w.write_u32(0x64635633);  // "dcV3"
    w.write_u32(16);          // width
    w.write_u32(16);          // height
    w.write_f64(30.0);
    w.write_u32(28);  // crf
    w.write_u8(0);    // deblock
    w.write_u32(1);   // segment count
    w.write_u32(0);   // first_frame
    w.write_i32(-1);  // segment crf
    w.write_u32(1);   // frame count
    w.write_u8(0);    // frame type I
    w.write_u32(0);   // display index
    return w;
  };
  {  // codec/container: a frame whose slice table is empty.
    ByteWriter w = container_frame_header();
    w.write_u32(0);  // slice count
    w.write_u32(0);  // payload size
    out.emplace_back("container-zero-slices.bin", w.bytes());
  }
  {  // codec/container: declared payload larger than the remaining bytes.
    ByteWriter w = container_frame_header();
    w.write_u32(1);         // slice count
    w.write_u32(0xffffff);  // slice size
    w.write_u32(0xffffff);  // payload size, far past the end
    out.emplace_back("container-truncated-payload.bin", w.bytes());
  }
  {  // codec/container: valid stream with its trailing CRC corrupted.
    codec::EncodedVideo v;
    v.width = 16;
    v.height = 16;
    ByteWriter w;
    codec::write_container(v, w);
    Bytes b = w.bytes();
    b.back() ^= 0xff;
    out.emplace_back("container-crc-mismatch.bin", std::move(b));
  }

  // codec/decoder: each entry is one slice substream of a 32x32 I frame,
  // opening with the resync header (marker, first MB row 0, 2 MB rows) so
  // that it reaches the check it pins.
  const auto decoder_slice = [] {
    codec::BitWriter bw;
    bw.put_bits(0x5c, 8);
    bw.put_ue(0);
    bw.put_ue(2);
    return bw;
  };
  {  // codec/decoder: vertical prediction signalled for the top-left block,
     // whose "row above" is row -1 — an ASan-caught heap over-read the
     // fuzz-smoke leg found (the encoder never emits a directional mode when
     // the neighbour is missing; only a corrupted stream can).
    codec::BitWriter bw = decoder_slice();
    bw.put_bits(1, 2);  // intra mode vertical
    out.emplace_back("decoder-mode-needs-missing-neighbour.bin", bw.finish());
  }
  {  // codec/decoder: zig-zag run pointing past the 64-coefficient block.
    codec::BitWriter bw = decoder_slice();
    bw.put_bits(0, 2);  // intra mode DC
    bw.put_ue(63);      // run to the last coefficient
    bw.put_se(1);       // its level
    bw.put_ue(0);       // one more (run 0) — lands at position 64
    out.emplace_back("decoder-run-past-block.bin", bw.finish());
  }

  // codec slices: the first byte of a slice substream must be the resync
  // marker 0x5c; anything else is a desynchronised or overwritten slice.
  out.emplace_back("slice-bad-marker.bin", Bytes{0x00});
  // codec slices: a substream that ends inside the resync header (marker
  // present, geometry fields missing) must throw, not read past the end.
  out.emplace_back("slice-truncated-header.bin", Bytes{0x5c});
  {  // codec slices: header geometry disagreeing with the canonical
     // partition (claims MB row 1 of 1 where slice 0 of a 32x32 frame must
     // cover rows [0, 2)) — a slice written for a different frame size or a
     // reordered slice table.
    codec::BitWriter bw;
    bw.put_bits(0x5c, 8);
    bw.put_ue(1);  // first_mb_row: canonical slice 0 starts at row 0
    bw.put_ue(1);  // mb_row_count: the single slice must cover both rows
    out.emplace_back("slice-geometry-mismatch.bin", bw.finish());
  }
  {  // codec slices: valid resync header, impossible intra mode right after
     // it — the entropy loop behind the resync point must stay hardened.
    codec::BitWriter bw;
    bw.put_bits(0x5c, 8);
    bw.put_ue(0);
    bw.put_ue(2);
    bw.put_bits(3, 2);  // intra mode 3 does not exist
    out.emplace_back("slice-bad-mode-after-resync.bin", bw.finish());
  }

  // codec slices, inter: the one slice of a 32x32 P or B frame (2x2
  // macroblocks), whose first three macroblocks carry vectors pointing 1-3
  // pixels past every frame edge (left and top from the top-left MB, right
  // from the top-right, bottom from the bottom-left), so the replay predicts
  // through the clamped border path of motion compensation as well as the
  // row path. The last macroblock carries the rejected element the entry
  // pins. Every block codes no coefficients (EOB only). The resync header
  // is decoder_slice's.
  const auto no_coefficients = [](codec::BitWriter& bw) {
    for (int b = 0; b < 6; ++b) bw.put_ue(64);
  };
  {  // codec slices: P vectors past every edge, then one past the decoder's
     // range. A P macroblock codes its vector minus its left neighbour's;
     // the predictor resets to (0, 0) at each MB row.
    codec::BitWriter bw = decoder_slice();
    const auto mb = [&](int dx, int dy) {
      bw.put_bit(false);  // not skipped
      bw.put_se(dx);
      bw.put_se(dy);
    };
    mb(-6, -5);  // (-6, -5): past the left and top edges
    no_coefficients(bw);
    mb(11, 3);  // (5, -2): past the right and top edges
    no_coefficients(bw);
    mb(-2, 6);  // (-2, 6), second row: past the left and bottom edges
    no_coefficients(bw);
    mb(1 << 19, 0);  // (2^19 - 2, 6): out of range
    out.emplace_back("slice-p-mv-past-edges.bin", bw.finish());
  }
  {  // codec slices: B macroblocks predicting bidirectionally, backward and
     // forward from past every edge, then prediction mode 3.
    codec::BitWriter bw = decoder_slice();
    const auto mb = [&](std::uint32_t mode, std::initializer_list<int> mvs) {
      bw.put_bit(false);  // not skipped
      bw.put_bits(mode, 2);
      for (const int v : mvs) bw.put_se(v);
      no_coefficients(bw);
    };
    mb(2, {-6, -5, -5, -6});  // bi: both vectors past the left and top edges
    mb(1, {6, -3});           // backward: past the right and top edges
    mb(0, {-3, 5});           // forward: past the left and bottom edges
    bw.put_bit(false);
    bw.put_bits(3, 2);  // B prediction mode 3 does not exist
    out.emplace_back("slice-b-mv-past-edges.bin", bw.finish());
  }

  {  // stream/playlist: unknown directive.
    const std::string text = "#DCSR-PLAYLIST:1\n#MODELS:0\n#BOGUS:1\n#END\n";
    out.emplace_back("playlist-bad-directive.txt", Bytes(text.begin(), text.end()));
  }
  {  // stream/playlist: non-numeric field.
    const std::string text = "#DCSR-PLAYLIST:1\n#MODELS:abc\n#END\n";
    out.emplace_back("playlist-bad-number.txt", Bytes(text.begin(), text.end()));
  }

  {  // stream/model_bundle: wrong magic.
    ByteWriter w;
    w.write_u32(0x21212121);
    out.emplace_back("bundle-bad-magic.bin", w.bytes());
  }
  {  // stream/model_bundle: payload byte flipped under a valid per-entry CRC.
    stream::ModelBundle b;
    b.add(0, Bytes{1, 2, 3, 4});
    ByteWriter w;
    b.serialize(w);
    Bytes bytes = w.bytes();
    bytes.back() ^= 0xff;
    out.emplace_back("bundle-crc-mismatch.bin", std::move(bytes));
  }

  return out;
}

}  // namespace dcsr::fuzz

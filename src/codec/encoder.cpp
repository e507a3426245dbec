#include "codec/encoder.hpp"

#include <stdexcept>

#include "codec/deblock.hpp"
#include "codec/frame_coding.hpp"
#include "codec/quant.hpp"
#include "image/convert.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::codec {

namespace {

// Display-order frame types of an L-frame segment. The segment always opens
// with I; extra I frames at intra_period; optionally alternate B between
// references. A segment never ends on a B (it would dangle without a future
// reference), and no B sits directly before an I, so every I frame opens a
// closed GOP: nothing before it is referenced from it or after it.
std::vector<FrameType> plan_types(const CodecConfig& cfg, int L) {
  std::vector<FrameType> types(static_cast<std::size_t>(L), FrameType::kP);
  types[0] = FrameType::kI;
  for (int d = 1; d < L; ++d) {
    if (cfg.intra_period > 0 && d % cfg.intra_period == 0) {
      types[static_cast<std::size_t>(d)] = FrameType::kI;
    } else if (cfg.use_b_frames && (d & 1) && d != L - 1 &&
               !(cfg.intra_period > 0 && (d + 1) % cfg.intra_period == 0)) {
      types[static_cast<std::size_t>(d)] = FrameType::kB;
    }
  }
  return types;
}

// One closed GOP: display frames [begin, end) of one segment.
struct Gop {
  int segment = 0;
  int begin = 0;
  int end = 0;
};

// Appends the closed GOPs of a segment (one per I frame) to `out`.
void split_gops(const std::vector<FrameType>& types, int segment,
                std::vector<Gop>& out) {
  const int L = static_cast<int>(types.size());
  int begin = 0;
  for (int d = 1; d <= L; ++d) {
    if (d == L || types[static_cast<std::size_t>(d)] == FrameType::kI) {
      out.push_back({segment, begin, d});
      begin = d;
    }
  }
}

// Source frame `d` (display index within segment `segment`). A source that
// has to produce the frame writes it into `scratch` and returns that.
using FrameSource =
    FunctionRef<const FrameYUV&(int segment, int d, FrameYUV& scratch)>;

// Encodes one closed GOP and returns its frames in decode order. `types` is
// the segment's plan. Each source frame is fetched when it is coded, so only
// the frames the GOP's references need are alive at once.
std::vector<EncodedFrame> encode_gop(const CodecConfig& cfg, const Quantizer& q,
                                     const std::vector<FrameType>& types,
                                     const Gop& gop, FrameSource source) {
  std::vector<EncodedFrame> out;
  out.reserve(static_cast<std::size_t>(gop.end - gop.begin));
  FrameYUV prev_ref;  // reconstruction of the previous reference, display order
  std::vector<int> pending_b;

  // Every frame is coded in the sliced format — even `slices = 1` — so
  // reconstruction is bit-identical for any slice count and the decoder can
  // always run slices concurrently.
  auto emit = [&](int d, FrameType type, FrameRefs refs) -> FrameYUV {
    EncodedFrame ef;
    ef.display_index = d;
    FrameYUV scratch;
    FrameYUV recon = encode_frame(type, source(gop.segment, d, scratch), refs,
                                  q, cfg.search_range, cfg.slices, ef);
    out.push_back(std::move(ef));
    // Closed loop: references are the *filtered* reconstruction, exactly
    // what the decoder will hold.
    if (cfg.deblock) deblock_frame(recon, q.base_step());
    return recon;
  };

  for (int d = gop.begin; d < gop.end; ++d) {
    const FrameType type = types[static_cast<std::size_t>(d)];
    if (type == FrameType::kB) {
      pending_b.push_back(d);
      continue;
    }
    // Reference frame: encode it, then any B frames waiting between the
    // previous reference and this one.
    FrameYUV recon = emit(d, type, {.newer = &prev_ref});
    for (const int b : pending_b)
      emit(b, FrameType::kB, {.older = &prev_ref, .newer = &recon});
    pending_b.clear();
    prev_ref = std::move(recon);
  }
  return out;
}

// Encodes every GOP of `gops` concurrently and returns each GOP's frames in
// decode order, indexed like `gops`. Each chunk owns the result slots of its
// GOPs, so the output — and its concatenation in GOP order — does not
// depend on the thread count.
std::vector<std::vector<EncodedFrame>> encode_gops(
    const CodecConfig& cfg, const std::vector<std::vector<FrameType>>& plans,
    const std::vector<Gop>& gops, FrameSource source, const char* site) {
  if (cfg.slices < 1)
    throw std::invalid_argument("encode: slices must be >= 1");
  const Quantizer q(cfg.crf);
  std::vector<std::vector<EncodedFrame>> coded(gops.size());
  parallel_for_writes(
      0, static_cast<std::int64_t>(gops.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(coded.data() + lo, static_cast<std::size_t>(hi - lo));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t g = lo; g < hi; ++g) {
          const Gop& gop = gops[static_cast<std::size_t>(g)];
          coded[static_cast<std::size_t>(g)] = encode_gop(
              cfg, q, plans[static_cast<std::size_t>(gop.segment)], gop, source);
        }
      },
      site);
  return coded;
}

}  // namespace

EncodedSegment Encoder::encode_segment(const std::vector<FrameYUV>& frames,
                                       int first_frame) const {
  if (frames.empty())
    throw std::invalid_argument("encode_segment: empty segment");
  const std::vector<std::vector<FrameType>> plans{
      plan_types(cfg_, static_cast<int>(frames.size()))};
  std::vector<Gop> gops;
  split_gops(plans[0], 0, gops);
  auto coded = encode_gops(
      cfg_, plans, gops,
      [&](int, int d, FrameYUV&) -> const FrameYUV& {
        return frames[static_cast<std::size_t>(d)];
      },
      "codec/encoder.cpp:Encoder::encode_segment");

  EncodedSegment seg;
  seg.first_frame = first_frame;
  seg.crf = cfg_.crf;
  seg.frames.reserve(frames.size());
  for (auto& gop_frames : coded)
    for (auto& ef : gop_frames) seg.frames.push_back(std::move(ef));
  return seg;
}

EncodedVideo Encoder::encode(const VideoSource& video,
                             const std::vector<SegmentPlan>& segments) const {
  int expected = 0;
  for (const auto& plan : segments) {
    if (plan.first_frame != expected || plan.frame_count <= 0)
      throw std::invalid_argument("encode: segments must be contiguous");
    expected = plan.first_frame + plan.frame_count;
  }
  if (expected != video.frame_count())
    throw std::invalid_argument("encode: segments must cover the whole video");

  // Frame types are planned per segment (the B rule reads its length); the
  // closed GOPs of all segments then encode as one flat set of independent
  // units. Each unit renders and converts only its own frames, as it codes
  // them, relying on VideoSource frames being pure functions of the index.
  std::vector<std::vector<FrameType>> plans;
  std::vector<Gop> gops;
  plans.reserve(segments.size());
  for (const auto& plan : segments) {
    plans.push_back(plan_types(cfg_, plan.frame_count));
    split_gops(plans.back(), static_cast<int>(plans.size()) - 1, gops);
  }
  auto coded = encode_gops(
      cfg_, plans, gops,
      [&](int segment, int d, FrameYUV& scratch) -> const FrameYUV& {
        const int first = segments[static_cast<std::size_t>(segment)].first_frame;
        scratch = rgb_to_yuv420(video.frame(first + d));
        return scratch;
      },
      "codec/encoder.cpp:Encoder::encode");

  EncodedVideo out;
  out.width = video.width();
  out.height = video.height();
  out.fps = video.fps();
  out.crf = cfg_.crf;
  out.deblock = cfg_.deblock;
  out.segments.resize(segments.size());
  for (std::size_t s = 0; s < segments.size(); ++s) {
    out.segments[s].first_frame = segments[s].first_frame;
    out.segments[s].crf = cfg_.crf;
  }
  for (std::size_t g = 0; g < gops.size(); ++g) {
    auto& dst = out.segments[static_cast<std::size_t>(gops[g].segment)].frames;
    for (auto& ef : coded[g]) dst.push_back(std::move(ef));
  }
  return out;
}

}  // namespace dcsr::codec

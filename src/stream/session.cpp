#include "stream/session.hpp"

#include "stream/errors.hpp"

namespace dcsr::stream {

SessionResult simulate_session(const Manifest& manifest, const SessionConfig& cfg) {
  SessionResult result;
  ModelCache cache;

  const std::size_t limit =
      cfg.watch_segments < 0
          ? manifest.segments.size()
          : std::min<std::size_t>(static_cast<std::size_t>(cfg.watch_segments),
                                  manifest.segments.size());

  for (std::size_t i = 0; i < limit; ++i) {
    const SegmentEntry& seg = manifest.segments[i];
    // make_manifest and parse_playlist validate labels, but a directly
    // constructed Manifest arrives unchecked — indexing model_bytes with a
    // dangling label was a silent out-of-bounds read.
    if (seg.model_label != kNoModel &&
        (seg.model_label < 0 ||
         static_cast<std::size_t>(seg.model_label) >= manifest.model_bytes.size()))
      throw ManifestError("simulate_session: segment references unknown model",
                          i, "segment index");
    SegmentLog log;
    log.segment_index = seg.segment_index;
    log.video_bytes = seg.video_bytes;

    if (seg.model_label != kNoModel) {
      const bool hit = cfg.enable_model_cache ? cache.fetch(seg.model_label)
                                              : false;
      log.cache_hit = hit;
      if (!hit) {
        log.model_bytes =
            manifest.model_bytes[static_cast<std::size_t>(seg.model_label)];
        ++result.model_downloads;
      } else {
        ++result.cache_hits;
      }
    }

    result.video_bytes += log.video_bytes;
    result.model_bytes += log.model_bytes;
    result.log.push_back(log);
  }
  return result;
}

}  // namespace dcsr::stream

// dcsr_cli — command-line front end for the codec and container layers.
//
//   dcsr_cli synth  <out.dcv> [genre] [seed] [seconds] [crf] [slices]
//                   [intra_period] [deblock]
//       Generates a synthetic genre video, splits it at scene changes,
//       encodes it (optionally as multiple macroblock-row slices per frame,
//       with an extra I frame every intra_period frames of a segment, 0, the
//       default, putting I frames only at segment starts, and with the
//       in-loop deblocking filter when deblock is 1; default 0), and writes
//       a .dcv container. The bytes do not depend on DCSR_THREADS.
//
//   dcsr_cli decode <in.dcv> <out.yuv>
//       Decodes the container and dumps raw little-endian f32 planes
//       (y, then u, then v, per frame in display order). The byte stream
//       is bit-exact across DCSR_THREADS and slice counts, which makes it
//       the comparison surface for the decode-smoke CI leg.
//
//   dcsr_cli info   <in.dcv>
//       Prints container metadata and per-frame-type bitstream statistics.
//
//   dcsr_cli verify <in.dcv> [genre] [seed] [seconds]
//       Decodes the container and, given the original synthesis parameters,
//       regenerates the source and reports luma PSNR per segment.
//
//   dcsr_cli deploy <dir> [genre] [seed] [seconds]
//       Runs the full server-side dcSR pipeline (split / encode at CRF 51 /
//       cluster / train micro models) and writes a CDN deployment directory
//       (video.dcv + models.bin + playlist.txt + meta.txt), creating it and
//       any missing parents. Prints one line per model, in label order, with
//       the size and CRC-32 of its fp32 weights (nn::save_params).
//
//   dcsr_cli play   <dir> [genre] [seed] [seconds]
//       Loads a deployment, streams it through the model cache, decodes with
//       in-loop micro-model enhancement, and reports quality vs LOW.
//
// Videos are 96x64 @ 10 fps (the repo's experiment scale).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "codec/analyze.hpp"
#include "core/deployment.hpp"
#include "core/client_pipeline.hpp"
#include "stream/session.hpp"
#include "codec/container.hpp"
#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "image/convert.hpp"
#include "image/metrics.hpp"
#include "nn/serialize.hpp"
#include "simd/dispatch.hpp"
#include "split/segmenter.hpp"
#include "util/file.hpp"
#include "util/table.hpp"
#include "video/genres.hpp"

using namespace dcsr;

namespace {

constexpr int kWidth = 96, kHeight = 64;
constexpr double kFps = 10.0;

Genre genre_by_name(const std::string& name) {
  for (const Genre g : all_genres())
    if (genre_name(g) == name) return g;
  std::fprintf(stderr, "unknown genre '%s' (try: ", name.c_str());
  for (const Genre g : all_genres()) std::fprintf(stderr, "%s ", genre_name(g).c_str());
  std::fprintf(stderr, ")\n");
  std::exit(2);
}

int cmd_synth(int argc, char** argv) {
  const std::string out = argv[0];
  const Genre genre = genre_by_name(argc > 1 ? argv[1] : "news");
  const auto seed = static_cast<std::uint64_t>(argc > 2 ? std::atoll(argv[2]) : 1);
  const double seconds = argc > 3 ? std::atof(argv[3]) : 20.0;
  const int crf = argc > 4 ? std::atoi(argv[4]) : 35;
  const int slices = argc > 5 ? std::atoi(argv[5]) : 1;
  const int intra_period = argc > 6 ? std::atoi(argv[6]) : 0;
  const bool deblock = argc > 7 && std::atoi(argv[7]) != 0;

  const auto video = make_genre_video(genre, seed, kWidth, kHeight, seconds, kFps);
  const auto segments = split::variable_segments(*video);
  codec::CodecConfig cfg;
  cfg.crf = crf;
  cfg.slices = slices;
  cfg.intra_period = intra_period;
  cfg.deblock = deblock;
  const auto encoded = codec::Encoder(cfg).encode(*video, segments);

  ByteWriter w;
  codec::write_container(encoded, w);
  write_file(out, w.bytes());
  std::printf(
      "wrote %s: %d frames in %zu segments, %.1f KB (crf %d, %d slices, "
      "intra period %d, deblock %d)\n",
      out.c_str(), encoded.frame_count(), encoded.segments.size(),
      w.size() / 1e3, crf, slices, intra_period, deblock ? 1 : 0);
  return 0;
}

int cmd_decode(int argc, char** argv) {
  (void)argc;
  ByteReader r(read_file(argv[0]));
  const codec::EncodedVideo encoded = codec::read_container(r);

  codec::Decoder dec(encoded);
  ByteWriter yuv;
  int frames = 0;
  for (const auto& seg : encoded.segments) {
    for (const FrameYUV& f : dec.decode_segment(seg)) {
      yuv.write_f32_span(f.y.data(), f.y.size());
      yuv.write_f32_span(f.u.data(), f.u.size());
      yuv.write_f32_span(f.v.data(), f.v.size());
      ++frames;
    }
  }
  write_file(argv[1], yuv.bytes());
  std::printf("decoded %s -> %s: %d frames, %.1f KB of f32 planes\n",
              argv[0], argv[1], frames, yuv.size() / 1e3);
  return 0;
}

int cmd_info(int argc, char** argv) {
  (void)argc;
  ByteReader r(read_file(argv[0]));
  const codec::EncodedVideo video = codec::read_container(r);
  std::printf("%s: %dx%d @ %.1f fps, crf %d, %zu segments, %d frames, %.1f KB\n\n",
              argv[0], video.width, video.height, video.fps, video.crf,
              video.segments.size(), video.frame_count(),
              video.size_bytes() / 1e3);

  const codec::StreamStats s = codec::analyze(video);
  Table t({"type", "frames", "bytes", "mean bytes/frame", "byte share"});
  t.add_row({"I", std::to_string(s.i_frames), std::to_string(s.i_bytes),
             fmt(s.mean_i_bytes(), 1), fmt(100.0 * s.i_byte_share(), 1) + "%"});
  t.add_row({"P", std::to_string(s.p_frames), std::to_string(s.p_bytes),
             fmt(s.mean_p_bytes(), 1),
             fmt(100.0 * s.p_bytes / std::max<std::uint64_t>(1, s.total_bytes()), 1) + "%"});
  t.add_row({"B", std::to_string(s.b_frames), std::to_string(s.b_bytes),
             fmt(s.mean_b_bytes(), 1),
             fmt(100.0 * s.b_bytes / std::max<std::uint64_t>(1, s.total_bytes()), 1) + "%"});
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_verify(int argc, char** argv) {
  ByteReader r(read_file(argv[0]));
  const codec::EncodedVideo encoded = codec::read_container(r);
  const Genre genre = genre_by_name(argc > 1 ? argv[1] : "news");
  const auto seed = static_cast<std::uint64_t>(argc > 2 ? std::atoll(argv[2]) : 1);
  const double seconds = argc > 3 ? std::atof(argv[3]) : 20.0;
  const auto video =
      make_genre_video(genre, seed, encoded.width, encoded.height, seconds, kFps);
  if (video->frame_count() != encoded.frame_count()) {
    std::fprintf(stderr, "frame count mismatch: container %d vs synth %d\n",
                 encoded.frame_count(), video->frame_count());
    return 1;
  }

  codec::Decoder dec(encoded);
  Table t({"segment", "frames", "mean luma PSNR"});
  int base = 0;
  for (std::size_t s = 0; s < encoded.segments.size(); ++s) {
    const auto frames = dec.decode_segment(encoded.segments[s]);
    double acc = 0.0;
    for (std::size_t i = 0; i < frames.size(); ++i)
      acc += psnr_luma(rgb_to_yuv420(video->frame(base + static_cast<int>(i))),
                       frames[i]);
    t.add_row({std::to_string(s), std::to_string(frames.size()),
               fmt(acc / static_cast<double>(frames.size()), 2)});
    base += static_cast<int>(frames.size());
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_deploy(int argc, char** argv) {
  const std::string dir = argv[0];
  const Genre genre = genre_by_name(argc > 1 ? argv[1] : "news");
  const auto seed = static_cast<std::uint64_t>(argc > 2 ? std::atoll(argv[2]) : 1);
  const double seconds = argc > 3 ? std::atof(argv[3]) : 30.0;

  const auto video = make_genre_video(genre, seed, kWidth, kHeight, seconds, kFps);
  core::ServerConfig cfg;
  cfg.vae = {.input_size = 16, .latent_dim = 6, .base_channels = 4, .hidden = 48};
  cfg.vae_epochs = 12;
  cfg.micro = {.n_filters = 8, .n_resblocks = 2, .scale = 1};
  cfg.k_max = 6;
  cfg.training = {.iterations = 400, .patch_size = 24, .batch_size = 4, .lr = 3e-3};

  std::printf("running server pipeline on %s (seed %llu, %.0f s)...\n",
              genre_name(genre).c_str(), static_cast<unsigned long long>(seed),
              seconds);
  const core::ServerResult server = core::run_server_pipeline(*video, cfg);
  core::write_deployment(server, dir, /*fp16=*/true);
  std::printf("wrote deployment to %s: %zu segments, %d micro models (fp16)\n",
              dir.c_str(), server.segments.size(), server.k);
  // The fp32 weights behind each fp16 model, in label order: two runs whose
  // fp32 weights differ by less than a half-precision step write the same
  // models.bin but print different CRCs.
  for (int label = 0; label < server.k; ++label) {
    ByteWriter w;
    nn::save_params(*server.micro_models[static_cast<std::size_t>(label)], w);
    std::printf("model %d: fp32 %zu B, crc32 %08x\n", label, w.size(),
                codec::crc32(w.bytes().data(), w.size()));
  }
  return 0;
}

int cmd_play(int argc, char** argv) {
  const std::string dir = argv[0];
  const Genre genre = genre_by_name(argc > 1 ? argv[1] : "news");
  const auto seed = static_cast<std::uint64_t>(argc > 2 ? std::atoll(argv[2]) : 1);
  const double seconds = argc > 3 ? std::atof(argv[3]) : 30.0;

  const core::Deployment dep = core::load_deployment(dir);
  const auto video = make_genre_video(genre, seed, dep.video.width,
                                      dep.video.height, seconds, kFps);
  if (video->frame_count() != dep.video.frame_count()) {
    std::fprintf(stderr, "frame count mismatch: deployment %d vs synth %d\n",
                 dep.video.frame_count(), video->frame_count());
    return 1;
  }

  const auto session = stream::simulate_session(dep.manifest);
  std::printf("session: %.1f KB video + %.1f KB models (%d downloads, %d cache hits)\n",
              session.video_bytes / 1e3, session.model_bytes / 1e3,
              session.model_downloads, session.cache_hits);

  const auto low = core::play_low(dep.video, *video);
  const auto dcsr = core::play_dcsr(dep.video, dep.labels, dep.models, *video);
  std::printf("LOW  : %.2f dB PSNR / %.4f SSIM\n", low.mean_psnr, low.mean_ssim);
  std::printf("dcSR : %.2f dB PSNR / %.4f SSIM  (%+.2f dB)\n", dcsr.mean_psnr,
              dcsr.mean_ssim, dcsr.mean_psnr - low.mean_psnr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage:\n"
                 "  dcsr_cli synth  <out.dcv> [genre] [seed] [seconds] [crf] [slices]"
                 " [intra_period] [deblock]\n"
                 "  dcsr_cli decode <in.dcv> <out.yuv>\n"
                 "  dcsr_cli info   <in.dcv>\n"
                 "  dcsr_cli verify <in.dcv> [genre] [seed] [seconds]\n"
                 "  dcsr_cli deploy <dir>    [genre] [seed] [seconds]\n"
                 "  dcsr_cli play   <dir>    [genre] [seed] [seconds]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    std::fprintf(stderr, "%s\n", simd::report().c_str());
    if (cmd == "synth") return cmd_synth(argc - 2, argv + 2);
    if (cmd == "decode") {
      if (argc < 4) {
        std::fprintf(stderr, "usage: dcsr_cli decode <in.dcv> <out.yuv>\n");
        return 2;
      }
      return cmd_decode(argc - 2, argv + 2);
    }
    if (cmd == "info") return cmd_info(argc - 2, argv + 2);
    if (cmd == "verify") return cmd_verify(argc - 2, argv + 2);
    if (cmd == "deploy") return cmd_deploy(argc - 2, argv + 2);
    if (cmd == "play") return cmd_play(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}

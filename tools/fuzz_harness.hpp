#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dcsr::fuzz {

/// One deterministic mutation-fuzz target: a parse surface that must reject
/// arbitrary bytes with its typed error, never UB, a crash, or an unrelated
/// exception. No libFuzzer — the loop is seeded via util/rng, so every
/// finding reproduces from (harness, seed, iteration) alone.
enum class Harness {
  kBits,       // codec/bits exp-Golomb reader + writer/reader roundtrip
  kContainer,  // codec/container read_container
  kDecoder,    // codec/decoder decode_segment on mutated frame payloads
  kPlaylist,   // stream/playlist text parse_playlist
  kBundle,     // stream/model_bundle deserialize
  kSlice,      // codec::decode_slice: resync headers, geometry, I/P/B rows
};

/// All harnesses in a stable order (the `all` mode of the CLI).
std::vector<Harness> all_harnesses();

const char* harness_name(Harness h);
std::optional<Harness> harness_from_name(std::string_view name);

/// What one input did when fed to a harness's parse surface.
enum class ReplayOutcome {
  kParsed,      // accepted: the mutation preserved validity
  kTypedError,  // rejected with the harness's typed error (the contract)
  kSafeError,   // rejected with a base-library guard (ByteReader truncation,
                // decoder reference-structure errors): safe, but untyped
};

/// Feeds one raw input to the harness's parse surface. Deterministic given
/// the bytes alone (no RNG), so checked-in corpus files replay exactly.
/// Anything other than a clean parse or an acceptable rejection propagates.
ReplayOutcome replay(Harness h, const std::vector<std::uint8_t>& bytes);

/// Feeds one regression-corpus file to the harness its name starts with.
/// A `slice-p-` or `slice-b-` file is the one slice substream of a 32x32 P
/// or B frame, decoded against two fixed references; every other file
/// replays as replay() does. nullopt when no harness name prefixes `name`.
std::optional<ReplayOutcome> replay_named(std::string_view name,
                                          const std::vector<std::uint8_t>& bytes);

/// The valid serialised artefact the fuzz loop mutates — a well-formed
/// container/playlist/bundle (or exp-Golomb stream for kBits).
/// Empty for kDecoder, whose base is a real encode done inside run(). For
/// kSlice it is one single-slice I frame substream, the shape replay()
/// decodes; run() instead mutates the substreams of a frame coded as I, P
/// and B at 1 and 2 slices and decodes each as the type it was coded as.
std::vector<std::uint8_t> valid_input(Harness h, std::uint64_t seed);

/// Thrown by run() when an iteration escapes the harness's error contract:
/// an exception outside the acceptable set, or a writer/reader roundtrip
/// mismatch. Carries everything needed to reproduce and minimise.
class FuzzFailure : public std::runtime_error {
 public:
  FuzzFailure(Harness h, std::uint64_t iteration,
              std::vector<std::uint8_t> input, const std::string& detail)
      : std::runtime_error(std::string("fuzz ") + harness_name(h) +
                           " iteration " + std::to_string(iteration) + ": " +
                           detail),
        harness_(h),
        iteration_(iteration),
        input_(std::move(input)) {}

  Harness harness() const noexcept { return harness_; }
  std::uint64_t iteration() const noexcept { return iteration_; }
  const std::vector<std::uint8_t>& input() const noexcept { return input_; }

 private:
  Harness harness_;
  std::uint64_t iteration_;
  std::vector<std::uint8_t> input_;
};

/// Tally of one fuzz run.
struct FuzzStats {
  std::uint64_t iterations = 0;
  std::uint64_t parsed = 0;       // mutations that still parsed
  std::uint64_t typed_errors = 0; // rejected with the typed error
  std::uint64_t safe_errors = 0;  // rejected with a base-library guard
};

/// Runs `iters` seeded mutation iterations against one harness. Iteration i
/// derives its own Rng from (seed, i), so a crash at iteration i reproduces
/// with run(h, seed, 1, i). Throws FuzzFailure on any contract escape.
FuzzStats run(Harness h, std::uint64_t seed, std::uint64_t iters,
              std::uint64_t start = 0);

/// The checked-in regression corpus: minimal deterministic inputs, one per
/// hardened failure mode, each of which must replay (replay_named) to
/// kTypedError. The files under tests/corpus/ are exactly these bytes
/// (fuzz_corpus_test pins both directions).
std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
regression_corpus();

}  // namespace dcsr::fuzz

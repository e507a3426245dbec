// Replays the checked-in fuzz regression corpus (tests/corpus/) in the
// default build: every input is a minimised reproducer for a hardened
// failure mode and must be rejected with its parse surface's *typed* error —
// never UB, an abort, or an unrelated exception. Also pins the corpus files
// themselves against regression_corpus(), so the two cannot drift apart.

#include <fstream>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz_harness.hpp"

namespace fuzz = dcsr::fuzz;

namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing corpus file " << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>());
}

}  // namespace

TEST(FuzzCorpus, EveryInputReplaysToTypedError) {
  const auto corpus = fuzz::regression_corpus();
  ASSERT_FALSE(corpus.empty());
  for (const auto& [name, bytes] : corpus) {
    EXPECT_EQ(fuzz::replay_named(name, bytes),
              fuzz::ReplayOutcome::kTypedError)
        << name;
  }
}

TEST(FuzzCorpus, CheckedInFilesMatchGenerator) {
  // The files under tests/corpus/ are the exact bytes regression_corpus()
  // produces; regenerate with `dcsr_fuzz --write-corpus tests/corpus` after
  // adding an entry.
  for (const auto& [name, bytes] : fuzz::regression_corpus()) {
    const auto on_disk = read_file(std::string(DCSR_CORPUS_DIR) + "/" + name);
    EXPECT_EQ(on_disk, bytes) << name;
  }
}

TEST(FuzzCorpus, CheckedInFilesReplayToTypedError) {
  for (const auto& [name, bytes] : fuzz::regression_corpus()) {
    const auto on_disk = read_file(std::string(DCSR_CORPUS_DIR) + "/" + name);
    EXPECT_EQ(fuzz::replay_named(name, on_disk),
              fuzz::ReplayOutcome::kTypedError)
        << name;
  }
}

TEST(FuzzCorpus, ValidBaseInputsParse) {
  // Sanity: an unmutated artefact from each structured harness parses
  // cleanly, so the fuzz loop is mutating something real rather than
  // rejecting everything at the first field. (kBits is excluded — its
  // replay reader intentionally reads a different op sequence than the
  // writer; kDecoder encodes its own base inside run().)
  const std::uint64_t kSeed = 7;
  for (const fuzz::Harness h :
       {fuzz::Harness::kContainer, fuzz::Harness::kPlaylist,
        fuzz::Harness::kBundle, fuzz::Harness::kSlice}) {
    EXPECT_EQ(fuzz::replay(h, fuzz::valid_input(h, kSeed)),
              fuzz::ReplayOutcome::kParsed)
        << fuzz::harness_name(h);
  }
}


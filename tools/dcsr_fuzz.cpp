// Deterministic mutation fuzzer for every parse surface in the repo.
//
//   dcsr_fuzz <harness|all> [--iters N] [--seed S] [--start I]
//   dcsr_fuzz --replay FILE [--harness H]
//   dcsr_fuzz --write-corpus DIR
//
// Harnesses: bits, container, decoder, playlist, bundle, slice.
//
// No libFuzzer: iteration i seeds its own util/rng generator from (seed, i),
// so any finding reproduces exactly with `--iters 1 --start i --seed S` —
// on any machine, in any build. Run under ASan/UBSan (tools/run_checks.sh
// fuzz-smoke leg) the harnesses also catch silent out-of-bounds reads that
// never surface as exceptions.
//
// On a contract escape (an exception outside the harness's typed-error set,
// or a writer/reader roundtrip mismatch) the offending input is written to
// ./fuzz-crash-<harness>.bin and the exit code is 1. Minimise by hand (the
// inputs are tiny), then check the result into tests/corpus/ and pin it in
// regression_corpus().
//
// --replay feeds one file to a harness (guessed from the filename prefix if
// --harness is omitted, with replay_named's P/B slice shapes) and reports
// the outcome. --write-corpus regenerates the checked-in regression corpus
// bytes.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "fuzz_harness.hpp"
#include "simd/dispatch.hpp"

namespace {

using dcsr::fuzz::FuzzFailure;
using dcsr::fuzz::FuzzStats;
using dcsr::fuzz::Harness;
using dcsr::fuzz::ReplayOutcome;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::cerr << "dcsr_fuzz: cannot open " << path << "\n";
    std::exit(2);
  }
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream f(path, std::ios::binary);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

std::string file_name(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::optional<Harness> harness_from_filename(const std::string& path) {
  const std::string name = file_name(path);
  for (const Harness h : dcsr::fuzz::all_harnesses())
    if (name.rfind(dcsr::fuzz::harness_name(h), 0) == 0) return h;
  return std::nullopt;
}

const char* outcome_name(ReplayOutcome o) {
  switch (o) {
    case ReplayOutcome::kParsed: return "parsed";
    case ReplayOutcome::kTypedError: return "typed-error";
    case ReplayOutcome::kSafeError: return "safe-error";
  }
  return "?";
}

int usage() {
  std::cerr
      << "usage: dcsr_fuzz <harness|all> [--iters N] [--seed S] [--start I]\n"
         "       dcsr_fuzz --replay FILE [--harness H]\n"
         "       dcsr_fuzz --write-corpus DIR\n"
         "harnesses: bits container decoder playlist bundle slice\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    std::fprintf(stderr, "%s\n", dcsr::simd::report().c_str());
  } catch (const dcsr::simd::SimdDispatchError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::uint64_t iters = 10000, seed = 1, start = 0;
  std::string target, replay_path, corpus_dir, harness_override;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        std::exit(usage());
      }
      return args[++i];
    };
    if (a == "--iters") {
      iters = std::stoull(next());
    } else if (a == "--seed") {
      seed = std::stoull(next());
    } else if (a == "--start") {
      start = std::stoull(next());
    } else if (a == "--replay") {
      replay_path = next();
    } else if (a == "--harness") {
      harness_override = next();
    } else if (a == "--write-corpus") {
      corpus_dir = next();
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else {
      target = a;
    }
  }

  if (!corpus_dir.empty()) {
    for (const auto& [name, bytes] : dcsr::fuzz::regression_corpus()) {
      write_file(corpus_dir + "/" + name, bytes);
      std::cout << "wrote " << corpus_dir << "/" << name << " (" << bytes.size()
                << " bytes)\n";
    }
    return 0;
  }

  if (!replay_path.empty()) {
    const auto h = harness_override.empty()
                       ? harness_from_filename(replay_path)
                       : dcsr::fuzz::harness_from_name(harness_override);
    if (!h) {
      std::cerr << "dcsr_fuzz: cannot infer harness for " << replay_path
                << "; pass --harness\n";
      return 2;
    }
    const auto bytes = read_file(replay_path);
    const auto outcome =
        harness_override.empty()
            ? *dcsr::fuzz::replay_named(file_name(replay_path), bytes)
            : dcsr::fuzz::replay(*h, bytes);
    std::cout << dcsr::fuzz::harness_name(*h) << " "
              << outcome_name(outcome) << "\n";
    return 0;
  }

  std::vector<Harness> targets;
  if (target == "all") {
    targets = dcsr::fuzz::all_harnesses();
  } else if (const auto h = dcsr::fuzz::harness_from_name(target)) {
    targets = {*h};
  } else {
    return usage();
  }

  for (const Harness h : targets) {
    try {
      const FuzzStats stats = dcsr::fuzz::run(h, seed, iters, start);
      std::cout << dcsr::fuzz::harness_name(h) << ": "
                << stats.iterations << " iterations, " << stats.parsed
                << " parsed, " << stats.typed_errors << " typed errors, "
                << stats.safe_errors << " safe errors\n";
    } catch (const FuzzFailure& e) {
      const std::string crash_file =
          std::string("fuzz-crash-") +
          dcsr::fuzz::harness_name(e.harness()) + ".bin";
      write_file(crash_file, e.input());
      std::cerr << "FAIL: " << e.what() << "\n"
                << "input saved to " << crash_file << " (" << e.input().size()
                << " bytes); reproduce with: dcsr_fuzz "
                << dcsr::fuzz::harness_name(e.harness()) << " --seed "
                << seed << " --start " << e.iteration() << " --iters 1\n";
      return 1;
    }
  }
  return 0;
}

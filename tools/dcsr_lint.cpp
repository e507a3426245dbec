// dcsr_lint — repo-invariant linter for the dcSR tree (no libclang, just a
// comment/literal-stripping scanner plus regex and brace matching).
//
// The concurrency and determinism contract (ROADMAP "Threading model") is
// prose; this tool is the part of it that can be machine-checked at review
// time. Enforced invariants:
//
//   [threads]       no raw std::thread / std::jthread / std::async outside
//                   the one sanctioned site: the pool module itself
//                   (src/util/thread_pool.cpp may use std::thread — it
//                   implements both ThreadPool and PipelineThread). The
//                   former std::async sanction for the segment pipeline is
//                   gone: producers now run on a persistent PipelineThread
//                   so their thread-local workspaces stay warm (PR 10).
//   [unnamed-claim] every parallel_for_writes call passes an explicit
//                   `site` string — the overlap/containment diagnostics
//                   lead with it, and the "unnamed parallel_for_writes"
//                   default makes them untraceable. Detected as an argument
//                   list with fewer than six top-level arguments (the
//                   declarations themselves carry six parameters and pass).
//   [atomic-float]  no std::atomic<float/double/long double> anywhere —
//                   float atomics invite reduction-order races that break
//                   bit-identical-across-thread-counts.
//   [random]        no rand()/srand()/std::random_device outside
//                   src/util/rng.* — all randomness flows through the
//                   deterministic, forkable Rng.
//   [module-infer]  every concrete nn::Module subclass declares
//                   `infer_into(...) const` — the one virtual inference
//                   entry point, stateless and concurrency-safe
//                   (Module::infer is a non-virtual wrapper over it).
//   [const-forward] no forward( call inside a `const` member function —
//                   forward() mutates layer caches; const paths must call
//                   infer().
//   [infer-alloc]   no allocating kernel spellings (matmul(, matmul_tn(,
//                   matmul_nt(, matmul*_naive(, im2col() inside an
//                   `infer(...) const` / `infer_into(...) const` body under
//                   src/nn/ — the inference hot path must use the *_into
//                   variants so steady-state playback stays allocation-free
//                   (PR 4's workspace contract).
//   [raw-index]     no raw `.data()[` element access outside src/tensor/ —
//                   pointer arithmetic on the backing store bypasses the
//                   DCSR_BOUNDS_CHECK accessors (PR 5's checked-view
//                   contract). A kernel that has been audited can opt a line
//                   out with a `// dcsr-lint: allow(raw-index)` annotation.
//   [reinterpret]   no reinterpret_cast outside the serialisation boundary
//                   (src/codec/bits.*, src/stream/model_bundle.*,
//                   src/util/file.cpp) — type punning anywhere else defeats
//                   the typed-error hardening of the parse surfaces.
//   [raw-intrinsics] no SIMD intrinsics outside src/simd/ — neither the
//                   vendor headers (<immintrin.h>, <emmintrin.h>,
//                   <x86intrin.h>, <arm_neon.h>, ...) nor the intrinsic
//                   identifiers themselves (_mm_*/_mm256_*/vld1*/vst1*).
//                   Per-ISA code lives behind the dispatch table
//                   (simd/dispatch.hpp) where every kernel is pinned bitwise
//                   against the scalar oracle; an intrinsic anywhere else is
//                   an unpinned, unported fast path.
//   [pragma-once]   every header starts its include guard with #pragma once.
//
// Usage:
//   dcsr_lint <src-root>     scan every .hpp/.cpp under <src-root>
//   dcsr_lint --self-test    run the embedded known-bad/known-good fixtures
//
// Exit status: 0 clean, 1 violations found, 2 usage or I/O error.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  std::size_t line;
  std::string rule;
  std::string message;
};

// ---------------------------------------------------------------------------
// Source preparation.
// ---------------------------------------------------------------------------

// Replaces the contents of comments and string/char literals with spaces,
// preserving every newline so byte offsets map to the original line numbers.
// Handles line/block comments, escape sequences, and raw string literals.
std::string strip_comments_and_literals(const std::string& src) {
  std::string out(src.size(), ' ');
  for (std::size_t i = 0; i < src.size(); ++i)
    if (src[i] == '\n') out[i] = '\n';

  std::size_t i = 0;
  const auto copy = [&](std::size_t at) { out[at] = src[at]; };
  while (i < src.size()) {
    const char c = src[i];
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') ++i;  // line comment
    } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) ++i;
      i = std::min(src.size(), i + 2);  // block comment
    } else if (c == 'R' && i + 1 < src.size() && src[i + 1] == '"') {
      // Raw string literal R"delim( ... )delim".
      std::size_t p = i + 2;
      std::string delim;
      while (p < src.size() && src[p] != '(') delim += src[p++];
      const std::string close = ")" + delim + "\"";
      const std::size_t end = src.find(close, p);
      i = (end == std::string::npos) ? src.size() : end + close.size();
    } else if (c == '"' || c == '\'') {
      // Skip the literal body; keep the delimiters so tokens stay separated.
      copy(i);
      const char q = c;
      ++i;
      while (i < src.size() && src[i] != q) {
        if (src[i] == '\\') ++i;
        ++i;
      }
      if (i < src.size()) copy(i++);
    } else {
      copy(i);
      ++i;
    }
  }
  return out;
}

std::size_t line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
}

// Position one past the matching '}' for the '{' at `open`, or npos.
std::size_t match_brace(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

bool path_ends_with(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------------
// Rules. Each takes the normalised path, the raw source and the stripped
// source and appends findings.
// ---------------------------------------------------------------------------

void rule_threads(const std::string& path, const std::string& stripped,
                  std::vector<Finding>& findings) {
  static const std::regex re(R"(std::(thread|jthread|async)\b)");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re);
       it != std::sregex_iterator(); ++it) {
    const std::string token = (*it)[1].str();
    const bool pool_file = path_ends_with(path, "util/thread_pool.cpp");
    if (pool_file && (token == "thread" || token == "jthread")) continue;
    findings.push_back(
        {path, line_of(stripped, static_cast<std::size_t>(it->position())),
         "threads",
         "raw std::" + token +
             " outside the sanctioned site (util/thread_pool.cpp); use "
             "parallel_for_writes or PipelineThread"});
  }
}

// parallel_for_writes without an explicit site argument: the checker's
// diagnostics (overlap, inverted-claim, containment) all lead with the site
// string, and the "unnamed parallel_for_writes" default turns every one of
// them into a dead end. The declarations carry six parameters and every
// compliant call passes six arguments, so anything with fewer top-level
// commas than five inside the parentheses dropped the site.
void rule_unnamed_claim(const std::string& path, const std::string& stripped,
                        std::vector<Finding>& findings) {
  static const std::regex re(R"(\bparallel_for_writes\s*\()");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t open = static_cast<std::size_t>(it->position()) +
                             static_cast<std::size_t>(it->length()) - 1;
    // Count commas at depth 1 of the argument list; nested (), {} and []
    // (lambda captures/bodies, nested calls, subscripts) shield theirs, and
    // so do template argument lists (static_cast<std::pair<int, int>>,
    // std::array<int, 4>) — tracked heuristically: '<' opens an angle list
    // only when it directly follows an identifier character, '>' closes one
    // only while a list is open and it is not part of '->' or '>='. Depth-1
    // comparisons spelled `a<b` would be mis-shielded, but those live inside
    // the claim/body lambdas (depth >= 2) at every real call site.
    int depth = 0;
    int angle = 0;
    std::size_t commas = 0;
    for (std::size_t i = open; i < stripped.size(); ++i) {
      const char c = stripped[i];
      if (c == '(' || c == '{' || c == '[') {
        ++depth;
      } else if (c == ')' || c == '}' || c == ']') {
        if (--depth == 0) break;
      } else if (depth == 1) {
        if (c == '<') {
          const char prev = i > open ? stripped[i - 1] : ' ';
          const char next = i + 1 < stripped.size() ? stripped[i + 1] : ' ';
          const bool after_ident =
              std::isalnum(static_cast<unsigned char>(prev)) || prev == '_';
          if (after_ident && next != '<' && next != '=') ++angle;
          if (next == '<') ++i;  // '<<' is never a template opener
        } else if (c == '>' && angle > 0) {
          const char prev = i > open ? stripped[i - 1] : ' ';
          const char next = i + 1 < stripped.size() ? stripped[i + 1] : ' ';
          if (prev != '-' && next != '=') --angle;  // '>>' closes two, one each
        } else if (c == ',' && angle == 0) {
          ++commas;
        }
      }
    }
    if (commas < 5)
      findings.push_back(
          {path, line_of(stripped, static_cast<std::size_t>(it->position())),
           "unnamed-claim",
           "parallel_for_writes without an explicit site argument: the "
           "checker's diagnostics would name \"unnamed parallel_for_writes\"; "
           "pass a \"file.cpp:function\" site string"});
  }
}

void rule_atomic_float(const std::string& path, const std::string& stripped,
                       std::vector<Finding>& findings) {
  static const std::regex re(
      R"(std::atomic\s*<\s*(float|double|long\s+double)\b)");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re);
       it != std::sregex_iterator(); ++it)
    findings.push_back(
        {path, line_of(stripped, static_cast<std::size_t>(it->position())),
         "atomic-float",
         "std::atomic<" + (*it)[1].str() +
             "> is banned: float atomics make accumulation order depend on "
             "scheduling; reduce serially in index order instead"});
}

void rule_random(const std::string& path, const std::string& stripped,
                 std::vector<Finding>& findings) {
  if (path.find("util/rng.") != std::string::npos) return;
  static const std::regex re_call(R"((^|[^\w:.>])(srand|rand)\s*\()");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re_call);
       it != std::sregex_iterator(); ++it)
    findings.push_back(
        {path,
         line_of(stripped,
                 static_cast<std::size_t>(it->position() + it->length(1))),
         "random",
         (*it)[2].str() +
             "() outside util/rng.*: all randomness must flow through the "
             "deterministic dcsr::Rng"});
  static const std::regex re_dev(R"(std::random_device\b)");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re_dev);
       it != std::sregex_iterator(); ++it)
    findings.push_back(
        {path, line_of(stripped, static_cast<std::size_t>(it->position())),
         "random",
         "std::random_device outside util/rng.*: non-deterministic seeding "
         "breaks run-to-run reproducibility"});
}

void rule_module_infer(const std::string& path, const std::string& stripped,
                       std::vector<Finding>& findings) {
  static const std::regex re(
      R"(class\s+(\w+)(\s+final)?\s*:\s*public\s+(?:nn::)?Module\b)");
  static const std::regex re_infer(R"(\binfer_into\s*\([^;{)]*\)\s*const\b)");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t pos = static_cast<std::size_t>(it->position());
    const std::size_t open = stripped.find('{', pos);
    if (open == std::string::npos) continue;  // forward declaration
    const std::size_t close = match_brace(stripped, open);
    if (close == std::string::npos) continue;
    const std::string body = stripped.substr(open, close - open);
    if (!std::regex_search(body, re_infer))
      findings.push_back(
          {path, line_of(stripped, pos), "module-infer",
           "class " + (*it)[1].str() +
               " derives from nn::Module but does not declare "
               "`infer_into(...) const` — every concrete layer must provide "
               "the stateless, thread-safe inference path"});
  }
}

void rule_const_forward(const std::string& path, const std::string& stripped,
                        std::vector<Finding>& findings) {
  static const std::regex re_const_fn(
      R"(\)\s*const\b(\s*(noexcept|override|final))*\s*\{)");
  static const std::regex re_forward(R"(\bforward\s*\()");
  for (auto it =
           std::sregex_iterator(stripped.begin(), stripped.end(), re_const_fn);
       it != std::sregex_iterator(); ++it) {
    const std::size_t open =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    const std::size_t close = match_brace(stripped, open);
    if (close == std::string::npos) continue;
    const std::string body = stripped.substr(open, close - open);
    for (auto fw = std::sregex_iterator(body.begin(), body.end(), re_forward);
         fw != std::sregex_iterator(); ++fw) {
      // std::forward (perfect forwarding) is not Module::forward.
      const std::size_t fpos = static_cast<std::size_t>(fw->position());
      if (fpos >= 5 && body.compare(fpos - 5, 5, "std::") == 0) continue;
      findings.push_back(
          {path, line_of(stripped, open + fpos), "const-forward",
           "forward( called inside a const member function: forward() "
           "mutates layer caches — const paths must call infer()"});
    }
  }
}

void rule_infer_alloc(const std::string& path, const std::string& stripped,
                      std::vector<Finding>& findings) {
  // Scoped to the layer library: src/nn/ is where the workspace contract is
  // mandatory. (src/sr orchestrates through the same infer_into path but is
  // covered transitively — its intermediates are workspace checkouts.)
  if (path.find("src/nn/") == std::string::npos) return;
  static const std::regex re_infer_fn(
      R"(\binfer(_into)?\s*\([^;{)]*\)\s*const\b(\s*(noexcept|override|final))*\s*\{)");
  // The `(?=\()`-style guard is spelled as a trailing `\(` in the match: the
  // *_into spellings do not match because '(' does not directly follow the
  // banned token.
  static const std::regex re_alloc(
      R"(\b(matmul(_tn|_nt)?(_naive)?|im2col)\s*\()");
  for (auto it =
           std::sregex_iterator(stripped.begin(), stripped.end(), re_infer_fn);
       it != std::sregex_iterator(); ++it) {
    const std::size_t open =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    const std::size_t close = match_brace(stripped, open);
    if (close == std::string::npos) continue;
    const std::string body = stripped.substr(open, close - open);
    for (auto al = std::sregex_iterator(body.begin(), body.end(), re_alloc);
         al != std::sregex_iterator(); ++al)
      findings.push_back(
          {path,
           line_of(stripped, open + static_cast<std::size_t>(al->position())),
           "infer-alloc",
           (*al)[1].str() +
               "( allocates a fresh Tensor inside an infer path: the "
               "inference hot loop must stay allocation-free — use the "
               "*_into variant with a caller/workspace-owned destination"});
  }
}

// The raw line of source containing byte `pos` (stripped and raw share byte
// offsets, so a position found in the stripped text indexes the same line).
std::string raw_line_at(const std::string& raw, std::size_t pos) {
  const std::size_t begin = raw.rfind('\n', pos);
  const std::size_t start = (begin == std::string::npos) ? 0 : begin + 1;
  std::size_t end = raw.find('\n', pos);
  if (end == std::string::npos) end = raw.size();
  return raw.substr(start, end - start);
}

void rule_raw_index(const std::string& path, const std::string& raw,
                    const std::string& stripped,
                    std::vector<Finding>& findings) {
  // The tensor library itself implements the checked accessors on top of the
  // backing store; everywhere else must go through them.
  if (path.find("src/tensor/") != std::string::npos) return;
  static const std::regex re(R"(\.data\s*\(\s*\)\s*\[)");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t pos = static_cast<std::size_t>(it->position());
    if (raw_line_at(raw, pos).find("dcsr-lint: allow(raw-index)") !=
        std::string::npos)
      continue;  // audited kernel line, explicitly annotated
    findings.push_back(
        {path, line_of(stripped, pos), "raw-index",
         "raw .data()[ indexing outside src/tensor/ bypasses the "
         "DCSR_BOUNDS_CHECK accessors — use at()/view()/slice(), or "
         "annotate an audited kernel line with "
         "`// dcsr-lint: allow(raw-index)`"});
  }
}

void rule_reinterpret(const std::string& path, const std::string& stripped,
                      std::vector<Finding>& findings) {
  // Type punning is confined to the byte-oriented serialisation boundary.
  const bool sanctioned = path.find("codec/bits.") != std::string::npos ||
                          path.find("stream/model_bundle.") !=
                              std::string::npos ||
                          path_ends_with(path, "util/file.cpp");
  if (sanctioned) return;
  static const std::regex re(R"(\breinterpret_cast\b)");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re);
       it != std::sregex_iterator(); ++it)
    findings.push_back(
        {path, line_of(stripped, static_cast<std::size_t>(it->position())),
         "reinterpret",
         "reinterpret_cast outside the serialisation boundary (codec/bits.*, "
         "stream/model_bundle.*, util/file.cpp): type punning elsewhere "
         "defeats the typed-error parse contract"});
}

void rule_raw_intrinsics(const std::string& path, const std::string& stripped,
                         std::vector<Finding>& findings) {
  // Per-ISA code is confined to src/simd/, behind the dispatch table.
  if (path.find("src/simd/") != std::string::npos) return;
  static const std::regex re(
      R"(#\s*include\s*<\w*intrin\.h>|#\s*include\s*<arm_neon\.h>|\b_mm\d*_\w+|\bvld\d\w*|\bvst\d\w*)");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re);
       it != std::sregex_iterator(); ++it)
    findings.push_back(
        {path, line_of(stripped, static_cast<std::size_t>(it->position())),
         "raw-intrinsics",
         "SIMD intrinsics outside src/simd/: per-ISA kernels must live "
         "behind the dispatch table (simd/dispatch.hpp), where they are "
         "pinned bitwise against the scalar oracle"});
}

void rule_raw_getenv(const std::string& path, const std::string& stripped,
                     std::vector<Finding>& findings) {
  // Every environment read flows through util/env.cpp's hardened parsers
  // (env_raw/env_int/env_bool): trailing garbage, empty strings and
  // overflow are rejected once, centrally, instead of re-decided (or
  // forgotten) at each call site.
  if (path_ends_with(path, "util/env.cpp")) return;
  static const std::regex re(
      R"((^|[^\w:.>])((?:std::|::)?(?:secure_)?getenv)\s*\()");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re);
       it != std::sregex_iterator(); ++it)
    findings.push_back(
        {path,
         line_of(stripped,
                 static_cast<std::size_t>(it->position() + it->length(1))),
         "raw-getenv",
         (*it)[2].str() +
             " outside src/util/env.cpp: read the environment through "
             "env_raw/env_int/env_bool (util/env.hpp), which reject trailing "
             "garbage and overflow instead of silently truncating"});
}

void rule_pragma_once(const std::string& path, const std::string& raw,
                      std::vector<Finding>& findings) {
  if (!path_ends_with(path, ".hpp") && !path_ends_with(path, ".h")) return;
  static const std::regex re(R"(#\s*pragma\s+once)");
  if (!std::regex_search(raw, re))
    findings.push_back({path, 1, "pragma-once",
                        "header is missing #pragma once"});
}

std::vector<Finding> run_rules(const std::string& path, const std::string& raw) {
  const std::string stripped = strip_comments_and_literals(raw);
  std::vector<Finding> findings;
  rule_threads(path, stripped, findings);
  rule_unnamed_claim(path, stripped, findings);
  rule_atomic_float(path, stripped, findings);
  rule_random(path, stripped, findings);
  rule_module_infer(path, stripped, findings);
  rule_const_forward(path, stripped, findings);
  rule_infer_alloc(path, stripped, findings);
  rule_raw_index(path, raw, stripped, findings);
  rule_reinterpret(path, stripped, findings);
  rule_raw_intrinsics(path, stripped, findings);
  rule_raw_getenv(path, stripped, findings);
  rule_pragma_once(path, raw, findings);
  return findings;
}

// ---------------------------------------------------------------------------
// Tree scan.
// ---------------------------------------------------------------------------

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

int scan_tree(const fs::path& root) {
  if (!fs::exists(root)) {
    std::cerr << "dcsr_lint: no such directory: " << root << "\n";
    return 2;
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root))
    if (entry.is_regular_file() && lintable(entry.path()))
      files.push_back(entry.path());
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cerr << "dcsr_lint: cannot read " << file << "\n";
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string path = file.generic_string();
    for (auto& f : run_rules(path, ss.str())) findings.push_back(std::move(f));
  }

  for (const auto& f : findings)
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  if (!findings.empty()) {
    std::cout << "dcsr_lint: " << findings.size() << " violation(s) in "
              << files.size() << " file(s)\n";
    return 1;
  }
  std::cout << "dcsr_lint: " << files.size() << " files clean\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: every banned pattern must be caught, every sanctioned site must
// pass. Fixtures exercise the allowlists with fake paths.
// ---------------------------------------------------------------------------

struct Fixture {
  const char* name;
  const char* path;
  const char* source;
  const char* rule;      // rule expected to fire (nullptr: expect clean)
};

const Fixture kFixtures[] = {
    // [threads]
    {"raw std::thread in a kernel", "src/codec/encoder.cpp",
     "void f() { std::thread t([]{}); t.join(); }", "threads"},
    {"raw std::async in a kernel", "src/sr/trainer.cpp",
     "auto r = std::async(std::launch::async, []{});", "threads"},
    {"std::jthread anywhere", "src/stream/session.cpp",
     "std::jthread t([]{});", "threads"},
    {"std::thread inside the pool", "src/util/thread_pool.cpp",
     "std::vector<std::thread> workers; unsigned n = "
     "std::thread::hardware_concurrency();",
     nullptr},
    {"std::async in the segment pipeline is no longer sanctioned",
     "src/core/client_pipeline.cpp",
     "next = std::async(std::launch::async, produce, s + 1);", "threads"},
    {"std::async is not sanctioned in the pool", "src/util/thread_pool.cpp",
     "auto r = std::async([]{});", "threads"},
    {"std::this_thread is not std::thread", "src/device/latency.cpp",
     "std::this_thread::yield();", nullptr},
    {"std::thread in a comment", "src/codec/encoder.cpp",
     "// std::thread is banned here\nint x;", nullptr},
    // [unnamed-claim]
    {"parallel_for_writes without a site", "src/tensor/kernels.cpp",
     "pool.parallel_for_writes(0, n, 1,\n"
     "    [&](std::int64_t lo, std::int64_t hi) {\n"
     "      return span_of(out + lo, static_cast<std::size_t>(hi - lo));\n"
     "    },\n"
     "    [&](std::int64_t lo, std::int64_t hi) { fill(out, lo, hi); });\n",
     "unnamed-claim"},
    {"free parallel_for_writes without a site", "src/nn/layer.cpp",
     "parallel_for_writes(0, n, 1, claim, body);", "unnamed-claim"},
    {"parallel_for_writes with a site", "src/tensor/kernels.cpp",
     "pool.parallel_for_writes(0, n, 1,\n"
     "    [&](std::int64_t lo, std::int64_t hi) {\n"
     "      return span_of(out + lo, static_cast<std::size_t>(hi - lo));\n"
     "    },\n"
     "    [&](std::int64_t lo, std::int64_t hi) { fill(out, lo, hi); },\n"
     "    \"tensor/kernels.cpp:fill\");\n",
     nullptr},
    {"commas inside lambda bodies do not count as arguments",
     "src/nn/layer.cpp",
     "parallel_for_writes(0, n, 1,\n"
     "    [&](std::int64_t lo, std::int64_t hi) {\n"
     "      return span_of(out + lo, static_cast<std::size_t>(hi - lo));\n"
     "    },\n"
     "    [&](std::int64_t lo, std::int64_t hi) {\n"
     "      int a[2] = {1, 2};\n"
     "      g(a[0], a[1], lo, hi);\n"
     "    });\n",
     "unnamed-claim"},
    {"the declaration's six parameters pass", "src/util/thread_pool.hpp",
     "#pragma once\nvoid parallel_for_writes(\n"
     "    std::int64_t begin, std::int64_t end, std::int64_t grain,\n"
     "    FunctionRef<WriteSpan(std::int64_t, std::int64_t)> claim,\n"
     "    FunctionRef<void(std::int64_t, std::int64_t)> fn,\n"
     "    const char* site = \"unnamed parallel_for_writes\");\n",
     nullptr},
    {"template-argument commas do not count as arguments",
     "src/tensor/kernels.cpp",
     "parallel_for_writes(0, static_cast<std::pair<int, int>>(n).second, 1,\n"
     "                    claim, body);\n",
     "unnamed-claim"},
    {"site after a template-comma argument is fine", "src/tensor/kernels.cpp",
     "parallel_for_writes(0, std::array<int, 4>{1, 2, 3, 4}.back(), 1,\n"
     "                    claim, body, \"tensor/kernels.cpp:fill\");\n",
     nullptr},
    {"trailing return arrow is not an angle close", "src/nn/layer.cpp",
     "parallel_for_writes(0, n, 1,\n"
     "    [&](std::int64_t lo, std::int64_t hi) -> WriteSpan {\n"
     "      return span_of(out + lo, static_cast<std::size_t>(hi - lo));\n"
     "    },\n"
     "    [&](std::int64_t lo, std::int64_t hi) { fill(out, lo, hi); },\n"
     "    \"nn/layer.cpp:fill\");\n",
     nullptr},
    {"parallel_for_writes in a comment", "src/tensor/kernels.cpp",
     "// parallel_for_writes(0, n, 1, claim, body) would be flagged\nint x;",
     nullptr},
    // [atomic-float]
    {"atomic float accumulator", "src/sr/trainer.cpp",
     "std::atomic<float> loss{0.0f};", "atomic-float"},
    {"atomic double accumulator", "src/sr/trainer.cpp",
     "std::atomic<double> loss{0.0};", "atomic-float"},
    {"atomic int is fine", "src/sr/trainer.cpp",
     "std::atomic<int> counter{0};", nullptr},
    // [random]
    {"libc rand()", "src/video/noise.cpp", "int r = rand();", "random"},
    {"libc srand()", "src/video/noise.cpp", "srand(42);", "random"},
    {"std::random_device", "src/cluster/kmeans.cpp",
     "std::random_device rd; auto s = rd();", "random"},
    {"rand() inside util/rng.*", "src/util/rng.cpp", "int r = rand();",
     nullptr},
    {"identifier containing rand", "src/codec/motion.cpp",
     "int strand(int x); int y = strand(3);", nullptr},
    {"member named rand", "src/codec/motion.cpp", "int y = gen.rand();",
     nullptr},
    // [module-infer]
    {"Module subclass without const infer_into", "src/nn/foo.hpp",
     "#pragma once\nclass Foo final : public Module {\n"
     " public:\n  Tensor forward(const Tensor& x) override;\n"
     "  Tensor backward(const Tensor& g) override;\n};\n",
     "module-infer"},
    {"Module subclass declaring only the infer wrapper", "src/nn/foo.hpp",
     "#pragma once\nclass Foo final : public Module {\n"
     " public:\n  Tensor infer(const Tensor& x) const;\n"
     "  Tensor backward(const Tensor& g) override;\n};\n",
     "module-infer"},
    {"Module subclass with const infer_into", "src/nn/foo.hpp",
     "#pragma once\nclass Foo final : public Module {\n"
     " public:\n  Tensor forward(const Tensor& x) override;\n"
     "  void infer_into(const Tensor& x, Tensor& out, Workspace& ws) "
     "const override;\n"
     "  Tensor backward(const Tensor& g) override;\n};\n",
     nullptr},
    {"non-const infer_into does not count", "src/nn/foo.hpp",
     "#pragma once\nclass Foo final : public Module {\n"
     "  void infer_into(const Tensor& x, Tensor& out, Workspace& ws);\n};\n",
     "module-infer"},
    {"qualified nn::Module base without infer_into", "src/sr/bar.hpp",
     "#pragma once\nclass Bar final : public nn::Module {\n"
     "  int infer_into_count_;\n};\n",
     "module-infer"},
    // [const-forward]
    {"forward() called from const method", "src/nn/foo.cpp",
     "Tensor Foo::infer(const Tensor& x) const { return forward(x); }",
     "const-forward"},
    {"member forward() from const method", "src/sr/baz.cpp",
     "Tensor Baz::infer(const Tensor& x) const { return head_.forward(x); }",
     "const-forward"},
    {"infer calling infer is fine", "src/nn/foo.cpp",
     "Tensor Foo::infer(const Tensor& x) const { return inner_.infer(x); }",
     nullptr},
    {"std::forward is not Module::forward", "src/util/meta.hpp",
     "#pragma once\ntemplate <class F> int call(F&& f) const_dummy();\n"
     "struct S { template <class T> int g(T&& t) const {"
     " return h(std::forward(t)); } };\n",
     nullptr},
    {"forward from non-const method is fine", "src/nn/foo.cpp",
     "Tensor Foo::forward(const Tensor& x) { return inner_.forward(x); }",
     nullptr},
    // [infer-alloc]
    {"allocating im2col in an infer body", "src/nn/conv.cpp",
     "Tensor Conv2d::infer(const Tensor& x) const {\n"
     "  Tensor cols = im2col(x, 0, kernel_, stride_, pad_);\n"
     "  return cols;\n}\n",
     "infer-alloc"},
    {"allocating matmul in an infer_into body", "src/nn/linear.cpp",
     "void Linear::infer_into(const Tensor& x, Tensor& out, Workspace& ws) "
     "const {\n  out = matmul(x, weight_.value);\n}\n",
     "infer-alloc"},
    {"naive matmul in an infer body", "src/nn/linear.cpp",
     "Tensor Linear::infer(const Tensor& x) const {\n"
     "  return matmul_tn_naive(x, weight_.value);\n}\n",
     "infer-alloc"},
    {"*_into spellings in infer_into are fine", "src/nn/linear.cpp",
     "void Linear::infer_into(const Tensor& x, Tensor& out, Workspace& ws) "
     "const {\n  matmul_nt_into(x, weight_.value, out);\n"
     "  im2col_into(x, 0, 3, 1, 1, out);\n}\n",
     nullptr},
    {"allocating matmul in forward is fine", "src/nn/linear.cpp",
     "Tensor Linear::forward(const Tensor& x) {\n"
     "  return matmul_nt(x, weight_.value);\n}\n",
     nullptr},
    {"allocating matmul in infer outside src/nn", "src/sr/patchnet.cpp",
     "Tensor PatchNet::infer(const Tensor& x) const {\n"
     "  return matmul(x, proj_);\n}\n",
     nullptr},
    // [raw-index]
    {"raw .data()[ in a layer", "src/nn/foo.cpp",
     "void f(const Tensor& t) { float y = t.data()[0]; (void)y; }",
     "raw-index"},
    {"raw .data()[ with spacing", "src/codec/residual.cpp",
     "float y = t.data () [i];", "raw-index"},
    {".data()[ inside src/tensor is fine", "src/tensor/ops.cpp",
     "float y = t.data()[0];", nullptr},
    {"annotated audited kernel line is fine", "src/nn/conv_kernels.cpp",
     "float y = t.data()[0];  // dcsr-lint: allow(raw-index)", nullptr},
    {".data() without indexing is fine", "src/stream/manifest.cpp",
     "const std::uint8_t* p = buf.data(); use(p, buf.size());", nullptr},
    // [reinterpret]
    {"reinterpret_cast in a kernel", "src/nn/conv.cpp",
     "auto* p = reinterpret_cast<const char*>(src);", "reinterpret"},
    {"reinterpret_cast in the bit packer is fine", "src/codec/bits.cpp",
     "auto* p = reinterpret_cast<const char*>(src);", nullptr},
    {"reinterpret_cast in the bundle codec is fine",
     "src/stream/model_bundle.cpp",
     "auto* p = reinterpret_cast<const std::uint8_t*>(src);", nullptr},
    {"reinterpret_cast in file I/O is fine", "src/util/file.cpp",
     "out.write(reinterpret_cast<const char*>(buf.data()), n);", nullptr},
    {"reinterpret_cast in a comment is fine", "src/core/session.cpp",
     "// reinterpret_cast is banned here\nint x;", nullptr},
    // [raw-intrinsics]
    {"immintrin include outside src/simd", "src/tensor/ops.cpp",
     "#include <immintrin.h>", "raw-intrinsics"},
    {"emmintrin include outside src/simd", "src/codec/dct.cpp",
     "#include <emmintrin.h>", "raw-intrinsics"},
    {"arm_neon include outside src/simd", "src/image/convert.cpp",
     "#include <arm_neon.h>", "raw-intrinsics"},
    {"_mm256_ intrinsic outside src/simd", "src/nn/conv.cpp",
     "auto v = _mm256_loadu_ps(p);", "raw-intrinsics"},
    {"_mm_ intrinsic outside src/simd", "src/codec/quant.cpp",
     "auto v = _mm_add_ps(a, b);", "raw-intrinsics"},
    {"NEON vld1 outside src/simd", "src/image/resize.cpp",
     "auto v = vld1q_f32(p);", "raw-intrinsics"},
    {"intrinsics inside src/simd are fine", "src/simd/kernels_avx2.cpp",
     "#include <immintrin.h>\nauto v = _mm256_loadu_ps(p);", nullptr},
    {"intrinsic named in a comment is fine", "src/tensor/ops.cpp",
     "// the avx2 backend uses _mm256_fmadd_ps here\nint x;", nullptr},
    // [raw-getenv]
    {"std::getenv outside util/env.cpp", "src/codec/encoder.cpp",
     "const char* v = std::getenv(\"DCSR_X\"); use(v);", "raw-getenv"},
    {"bare getenv outside util/env.cpp", "src/stream/fleet.cpp",
     "const char* v = getenv(\"HOME\"); use(v);", "raw-getenv"},
    {"secure_getenv outside util/env.cpp", "src/util/thread_pool.cpp",
     "const char* v = secure_getenv(\"DCSR_THREADS\"); use(v);", "raw-getenv"},
    {"std::getenv inside util/env.cpp is fine", "src/util/env.cpp",
     "const char* v = std::getenv(name); use(v);", nullptr},
    {"env_raw wrapper call is fine", "src/util/thread_pool.cpp",
     "const char* v = env_raw(\"DCSR_THREADS\"); use(v);", nullptr},
    {"identifier ending in getenv is fine", "src/stream/session.cpp",
     "int my_getenv(int); int y = my_getenv(3);", nullptr},
    {"getenv in a comment is fine", "src/codec/encoder.cpp",
     "// std::getenv is banned here\nint x;", nullptr},
    // [pragma-once]
    {"header without pragma once", "src/nn/foo.hpp",
     "class Foo final : public Module {\n"
     "  void infer_into(const Tensor&, Tensor&, Workspace&) const;\n};",
     "pragma-once"},
    {"source file needs no pragma once", "src/nn/foo.cpp", "int x;", nullptr},
};

int self_test() {
  int failures = 0;
  for (const Fixture& fx : kFixtures) {
    const auto findings = run_rules(fx.path, fx.source);
    const bool fired =
        fx.rule != nullptr &&
        std::any_of(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == fx.rule; });
    bool ok;
    if (fx.rule == nullptr) {
      ok = findings.empty();
    } else {
      // The expected rule must fire, and nothing else may (fixtures are
      // minimal: one violation each).
      ok = fired && findings.size() == 1;
    }
    if (!ok) {
      ++failures;
      std::cout << "FAIL: " << fx.name << " (expected "
                << (fx.rule ? fx.rule : "clean") << ", got";
      if (findings.empty()) std::cout << " clean";
      for (const auto& f : findings) std::cout << " [" << f.rule << "]";
      std::cout << ")\n";
    } else {
      std::cout << "ok:   " << fx.name << "\n";
    }
  }
  const std::size_t total = sizeof(kFixtures) / sizeof(kFixtures[0]);
  std::cout << "dcsr_lint self-test: " << (total - static_cast<std::size_t>(failures))
            << "/" << total << " fixtures passed\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: dcsr_lint <src-root> | dcsr_lint --self-test\n";
    return 2;
  }
  const std::string arg = argv[1];
  if (arg == "--self-test") return self_test();
  return scan_tree(arg);
}

#include "simd/dispatch.hpp"

#include <sstream>

#include "util/alloc_check.hpp"
#include "util/env.hpp"

namespace dcsr::simd {

namespace {

bool cpu_supports_avx2_fma() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  // The AVX2 backend leans on vfmadd for the fused families, so it
  // needs both feature bits (paired on every real AVX2 part, but checking
  // is free).
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_supports_avx512() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  // The tier's own kernels need only avx512f; every other family runs the
  // AVX2 kernels, so the AVX2 tier's bits are required as well.
  return cpu_supports_avx2_fma() && __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

// Every backend table, built once: avx2 overlays a copy of the scalar
// oracle and avx512 a copy of avx2. Building a table never executes that
// backend's instructions — the populate functions only store function
// pointers — so constructing it on an unsupported host is safe; host gating
// happens in table_for().
struct Tables {
  KernelTable scalar, avx2, avx512;
  bool compiled_avx2, compiled_avx512;
  Tables() noexcept : scalar(scalar_table()), avx2(scalar), avx512(scalar) {
    compiled_avx2 = populate_avx2(avx2);
    avx512 = avx2;
    compiled_avx512 = compiled_avx2 && populate_avx512(avx512);
  }
};

const Tables& tables() noexcept {
  static const Tables t;
  return t;
}

const KernelTable* resolve_from_env() {
  // One-time lazy resolution, possibly triggered from a guarded kernel's
  // first call: the parse (and any diagnostic) is sanctioned warm-up.
  AllocAllowScope allow;
  const char* env = env_raw("DCSR_SIMD");
  if (env != nullptr && *env != '\0') {
    const Backend b = parse_backend(env);
    const KernelTable* t = table_for(b);
    if (t == nullptr) {
      std::ostringstream os;
      os << "DCSR_SIMD=" << backend_name(b)
         << ": backend not supported on this host";
      throw SimdDispatchError(os.str());
    }
    return t;
  }
  // Best supported backend, avx512 > avx2 > scalar.
  for (const Backend b : {Backend::kAvx512, Backend::kAvx2})
    if (const KernelTable* t = table_for(b)) return t;
  return &tables().scalar;
}

// The active-table slot. Resolved lazily (so the error for a bad DCSR_SIMD
// surfaces on first kernel use, catchable by CLI mains) and swappable by
// ScopedBackendForTest from a quiescent main thread.
const KernelTable*& active_slot() {
  static const KernelTable* slot = resolve_from_env();
  return slot;
}

}  // namespace

const char* family_name(int family) noexcept {
  switch (family) {
    case kFamDct: return "dct";
    case kFamIdct: return "idct";
    case kFamDequantIdct: return "dequant_idct";
    case kFamQuant: return "quant";
    case kFamDequant: return "dequant";
    case kFamGemm: return "gemm";
    case kFamIm2col: return "im2col";
    case kFamConv3x3: return "conv3x3";
    case kFamConv3x3Dw: return "conv3x3_dw";
    case kFamConv3x3Dx: return "conv3x3_dx";
    case kFamRowSum: return "row_sum";
    case kFamYuvToRgb: return "yuv2rgb";
    case kFamRgbToYuv: return "rgb2yuv";
    case kFamChromaBox: return "chroma_box";
    default: return "?";
  }
}

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar: return "scalar";
    case Backend::kSse2: return "sse2";
    case Backend::kAvx2: return "avx2";
    case Backend::kNeon: return "neon";
    case Backend::kAvx512: return "avx512";
  }
  return "?";
}

Backend parse_backend(const std::string& value) {
  for (const Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512})
    if (value == backend_name(b)) return b;
  throw SimdDispatchError("DCSR_SIMD: unknown backend '" + value +
                          "' (expected scalar|avx2|avx512)");
}

bool host_supports(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar: return true;
    case Backend::kAvx2:
      return tables().compiled_avx2 && cpu_supports_avx2_fma();
    case Backend::kAvx512:
      return tables().compiled_avx512 && cpu_supports_avx512();
    case Backend::kSse2:
    case Backend::kNeon: return false;
  }
  return false;
}

const KernelTable* table_for(Backend b) noexcept {
  if (!host_supports(b)) return nullptr;
  switch (b) {
    case Backend::kScalar: return &tables().scalar;
    case Backend::kAvx2: return &tables().avx2;
    case Backend::kAvx512: return &tables().avx512;
    case Backend::kSse2:
    case Backend::kNeon: break;
  }
  return nullptr;
}

const KernelTable& active() { return *active_slot(); }

Backend active_backend() { return active().id; }

std::string report() {
  const KernelTable& t = active();
  std::ostringstream os;
  os << "dcsr-simd: backend=" << backend_name(t.id);
  for (int f = 0; f < kNumFamilies; ++f)
    os << ' ' << family_name(f) << '=' << backend_name(t.origin[f]);
  return os.str();
}

ScopedBackendForTest::ScopedBackendForTest(Backend b) : saved_(active_slot()) {
  const KernelTable* t = table_for(b);
  if (t == nullptr)
    throw SimdDispatchError(std::string("ScopedBackendForTest: backend '") +
                            backend_name(b) + "' not supported on this host");
  active_slot() = t;
}

ScopedBackendForTest::~ScopedBackendForTest() { active_slot() = saved_; }

}  // namespace dcsr::simd

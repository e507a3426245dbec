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

// Both backend tables, built once: avx2 overlays a copy of the scalar
// oracle. Building a table never executes that backend's instructions —
// populate_avx2 only stores function pointers — so constructing it on an
// unsupported host is safe; host gating happens in table_for().
struct Tables {
  KernelTable scalar, avx2;
  bool compiled_avx2;
  Tables() noexcept : scalar(scalar_table()), avx2(scalar) {
    compiled_avx2 = populate_avx2(avx2);
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
  // Best supported backend, avx2 > scalar.
  if (const KernelTable* t = table_for(Backend::kAvx2)) return t;
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
  }
  return "?";
}

Backend parse_backend(const std::string& value) {
  for (const Backend b : {Backend::kScalar, Backend::kAvx2})
    if (value == backend_name(b)) return b;
  throw SimdDispatchError("DCSR_SIMD: unknown backend '" + value +
                          "' (expected scalar|avx2)");
}

bool host_supports(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar: return true;
    case Backend::kAvx2:
      return tables().compiled_avx2 && cpu_supports_avx2_fma();
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

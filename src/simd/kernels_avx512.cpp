// AVX-512 tier. Compiled with -mavx512f -mavx2 -mfma (see
// src/simd/CMakeLists.txt) on top of the tree-wide -ffp-contract=off;
// installed only when cpuid reports avx512f besides the AVX2 tier's avx2
// and fma.
//
// The tier overlays a copy of the AVX2 table and replaces the two direct
// 3x3 families whose vector lanes are independent output pixels, conv3x3
// and conv3x3_dx, with the zmm instantiation of conv3x3_tiles.hpp: tiles of
// 8 channels x 2 vectors of 16 pixels. The last o % 8 (c % 8) channels run
// that header's ymm blocks, compiled in this TU, which are faster than a zmm
// tile for a block of 3 (the 8 -> 3 output conv of every micro model).
// conv3x3_dw stays on AVX2: its contract fixes eight lane sums per output.
#include "simd/kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "simd/conv3x3_tiles.hpp"

namespace dcsr::simd {
namespace {

// 16-lane zmm vectors, the traits conv3x3_tiles.hpp asks for.
struct Zmm {
  using reg = __m512;
  using mask = __mmask16;
  static constexpr int kLanes = 16;
  static reg zero() { return _mm512_setzero_ps(); }
  static reg load(const float* p) { return _mm512_loadu_ps(p); }
  static reg load_masked(const float* p, mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void store(float* p, reg v) { _mm512_storeu_ps(p, v); }
  static void store_masked(float* p, mask m, reg v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  static reg broadcast(const float* p) { return _mm512_set1_ps(*p); }
  static reg fmadd(reg a, reg b, reg c) { return _mm512_fmadd_ps(a, b, c); }
  static reg add(reg a, reg b) { return _mm512_add_ps(a, b); }
  // vmaxps as in Ymm::relu. GCC 12's _mm512_max_ps passes
  // _mm512_undefined_ps() as its pass-through operand, which trips
  // -Wmaybe-uninitialized under -Werror; the all-ones-mask form is the same
  // vmaxps.
  static reg relu(reg v) {
    return _mm512_maskz_max_ps(0xFFFF, v, _mm512_setzero_ps());
  }
  static mask first_lanes(int n) {
    return static_cast<mask>((1u << n) - 1u);
  }
};

}  // namespace

bool populate_avx512(KernelTable& t) noexcept {
  t.id = Backend::kAvx512;
  t.conv3x3 = &conv3x3<Zmm, 8, 2>;
  t.conv3x3_dx = &conv3x3_dx<Zmm, 8, 2>;
  t.origin[kFamConv3x3] = Backend::kAvx512;
  t.origin[kFamConv3x3Dx] = Backend::kAvx512;
  return true;
}

}  // namespace dcsr::simd

#else  // non-x86: nothing to install.

namespace dcsr::simd {
bool populate_avx512(KernelTable&) noexcept { return false; }
}  // namespace dcsr::simd

#endif

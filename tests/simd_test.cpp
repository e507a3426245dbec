// Simd.*: pins every SIMD kernel bitwise against the scalar reference
// oracle, per available backend. These are the tests that make the backends
// interchangeable: if any of them fails, runtime dispatch would make results
// depend on the host CPU, which breaks the repo's determinism contract.
//
// The whole suite also runs once per backend at the ctest level —
// tools/run_checks.sh's `simd` leg sets DCSR_SIMD and re-runs tier-1 — so
// the cross-kernel tests here focus on per-family pins and the dispatcher
// surface itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "codec/block_coder.hpp"
#include "codec/container.hpp"
#include "codec/dct.hpp"
#include "codec/quant.hpp"
#include "image/convert.hpp"
#include "image/frame.hpp"
#include "simd/dispatch.hpp"
#include "util/rng.hpp"

namespace dcsr {
namespace {

using simd::Backend;

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kSse2, Backend::kAvx2,
                    Backend::kNeon, Backend::kAvx512})
    if (simd::table_for(b) != nullptr) out.push_back(b);
  return out;
}

std::vector<Backend> simd_backends() {
  std::vector<Backend> out;
  for (Backend b : available_backends())
    if (b != Backend::kScalar) out.push_back(b);
  return out;
}

template <typename T>
::testing::AssertionResult BitsEq(const T* a, const T* b, std::size_t n,
                                  const char* what, Backend backend) {
  for (std::size_t i = 0; i < n; ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0)
      return ::testing::AssertionFailure()
             << what << " differs from scalar oracle on backend "
             << simd::backend_name(backend) << " at element " << i;
  return ::testing::AssertionSuccess();
}

// --- dispatcher surface -----------------------------------------------------

TEST(Simd, ParseBackendAcceptsExactNamesOnly) {
  EXPECT_EQ(simd::parse_backend("scalar"), Backend::kScalar);
  EXPECT_EQ(simd::parse_backend("avx2"), Backend::kAvx2);
  EXPECT_EQ(simd::parse_backend("avx512"), Backend::kAvx512);
  // No SSE2 or NEON backend exists; their names are unknown backends.
  EXPECT_THROW(simd::parse_backend("sse2"), simd::SimdDispatchError);
  EXPECT_THROW(simd::parse_backend("neon"), simd::SimdDispatchError);
  EXPECT_THROW(simd::parse_backend(""), simd::SimdDispatchError);
  EXPECT_THROW(simd::parse_backend("AVX2"), simd::SimdDispatchError);
  EXPECT_THROW(simd::parse_backend("avx2 "), simd::SimdDispatchError);
  EXPECT_THROW(simd::parse_backend("AVX512"), simd::SimdDispatchError);
  EXPECT_THROW(simd::parse_backend("avx512f"), simd::SimdDispatchError);
  EXPECT_THROW(simd::parse_backend("avx51"), simd::SimdDispatchError);
}

TEST(Simd, BackendNamesRoundTrip) {
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512})
    EXPECT_EQ(simd::parse_backend(simd::backend_name(b)), b);
  for (Backend b : {Backend::kSse2, Backend::kNeon})
    EXPECT_THROW(simd::parse_backend(simd::backend_name(b)),
                 simd::SimdDispatchError);
}

TEST(Simd, ScalarAlwaysAvailable) {
  EXPECT_TRUE(simd::host_supports(Backend::kScalar));
  ASSERT_NE(simd::table_for(Backend::kScalar), nullptr);
  EXPECT_EQ(simd::table_for(Backend::kScalar)->id, Backend::kScalar);
}

TEST(Simd, TableMatchesHostSupport) {
  for (Backend b : {Backend::kScalar, Backend::kSse2, Backend::kAvx2,
                    Backend::kNeon, Backend::kAvx512})
    EXPECT_EQ(simd::table_for(b) != nullptr, simd::host_supports(b))
        << simd::backend_name(b);
}

TEST(Simd, UnsupportedBackendScopedSwapThrows) {
  for (Backend b : {Backend::kSse2, Backend::kNeon}) {
    EXPECT_FALSE(simd::host_supports(b)) << simd::backend_name(b);
    EXPECT_THROW(simd::ScopedBackendForTest guard(b), simd::SimdDispatchError);
  }
  for (Backend b : {Backend::kAvx2, Backend::kAvx512})
    if (!simd::host_supports(b)) {
      EXPECT_THROW(simd::ScopedBackendForTest guard(b),
                   simd::SimdDispatchError);
    }
}

TEST(Simd, ScopedSwapChangesAndRestoresActiveBackend) {
  const Backend before = simd::active_backend();
  {
    simd::ScopedBackendForTest guard(Backend::kScalar);
    EXPECT_EQ(simd::active_backend(), Backend::kScalar);
  }
  EXPECT_EQ(simd::active_backend(), before);
}

TEST(Simd, ReportNamesActiveBackendAndEveryFamily) {
  const std::string r = simd::report();
  EXPECT_NE(r.find("dcsr-simd: backend="), std::string::npos) << r;
  for (int f = 0; f < simd::kNumFamilies; ++f)
    EXPECT_NE(r.find(std::string(" ") + simd::family_name(f) + "="),
              std::string::npos)
        << r;
}

TEST(Simd, EveryFamilyOriginIsInstalled) {
  // The scalar and avx2 tables install their own kernel for every family;
  // the avx512 tier installs its own for exactly the two direct-conv
  // families it overrides and keeps the avx2 kernel for every other one. No
  // family of a supported backend silently falls back to the scalar oracle,
  // whatever the build type.
  const auto expected_origin = [](Backend b, int f) {
    if (b != Backend::kAvx512) return b;
    return f == simd::kFamConv3x3 || f == simd::kFamConv3x3Dx
               ? Backend::kAvx512
               : Backend::kAvx2;
  };
  for (Backend b : available_backends()) {
    const simd::KernelTable* t = simd::table_for(b);
    EXPECT_EQ(t->id, b);
    for (int f = 0; f < simd::kNumFamilies; ++f) {
      EXPECT_NE(simd::family_name(f), nullptr);
      EXPECT_EQ(t->origin[f], expected_origin(b, f))
          << simd::backend_name(b) << ' ' << simd::family_name(f);
    }
  }
}

// --- golden pin of the oracle itself ----------------------------------------

// Appends the object representation of n values to a byte log.
template <typename T>
void append_bytes(std::vector<std::uint8_t>& log, const T* p, std::size_t n) {
  const std::size_t off = log.size();
  log.resize(off + n * sizeof(T));
  std::memcpy(log.data() + off, p, n * sizeof(T));
}

std::uint32_t crc_of(const std::vector<std::uint8_t>& log) {
  return codec::crc32(log.data(), log.size());
}

// Every other Simd.* test pins a backend against the scalar oracle; this one
// pins the oracle's own bits, one CRC-32 per float-accumulating family, so
// they cannot drift with the build type, -march or the compiler's
// contraction choices. The inputs cover the DCT impulses of both signs
// (which produce signed zeros), odd row widths (tail lanes) and both GEMM
// A-panel layouts.
TEST(Simd, ScalarOracleGoldenCrc) {
  const auto& sc = simd::scalar_table();
  Rng rng(0x5eedc0deULL);
  // Uniform on the 2^-22 grid in [lo, hi] (|lo|, |hi| <= 2): an integer
  // draw scaled by a power of two, so the inputs are exact in every build
  // and only the kernels' own arithmetic is pinned.
  const auto uni = [&rng](double lo, double hi) {
    const auto q = rng.uniform_int(std::llround(std::ldexp(lo, 22)),
                                   std::llround(std::ldexp(hi, 22)));
    return std::ldexp(static_cast<float>(q), -22);
  };

  std::vector<std::uint8_t> dct, idct, dequant_idct;
  for (int i = 0; i < 128 + 200; ++i) {
    float in[64] = {};
    if (i < 128) {
      in[i % 64] = i < 64 ? 1.0f : -1.0f;
    } else {
      for (auto& v : in) v = uni(-1.0, 1.0);
    }
    float out[64];
    sc.dct8x8(in, out);
    append_bytes(dct, out, 64);
    sc.idct8x8(in, out);
    append_bytes(idct, out, 64);
  }
  for (int i = 0; i < 64 + 200; ++i) {
    std::int32_t levels[64] = {};
    float steps[64];
    if (i < 64) {
      levels[i] = 1;
    } else {
      for (auto& l : levels)
        l = static_cast<std::int32_t>(rng.uniform_int(-100, 100));
    }
    for (auto& st : steps) st = uni(0.01, 0.5);
    float out[64];
    sc.dequant_idct8x8(levels, steps, out);
    append_bytes(dequant_idct, out, 64);
  }

  std::vector<std::uint8_t> gemm;
  for (int it = 0; it < 60; ++it) {
    const int kn = 1 + static_cast<int>(rng.uniform_int(0, 70));
    const std::size_t ldb = 16 + 8 * static_cast<std::size_t>(it % 3);
    const std::size_t ldc = 16 + 8 * static_cast<std::size_t>((it / 3) % 2);
    const bool tn = (it % 2) != 0;
    const std::size_t a_rs = tn ? 1 : static_cast<std::size_t>(kn);
    const std::size_t a_ks = tn ? 6 : 1;
    std::vector<float> A(static_cast<std::size_t>(6) * kn);
    std::vector<float> B(static_cast<std::size_t>(kn) * ldb);
    std::vector<float> C(6 * ldc);
    for (auto* v : {&A, &B, &C})
      for (auto& x : *v) x = uni(-2.0, 2.0);
    sc.gemm_tile(A.data(), a_rs, a_ks, B.data(), ldb, C.data(), ldc, 6, 16,
                 kn);
    append_bytes(gemm, C.data(), C.size());
  }

  std::vector<std::uint8_t> yuv2rgb, rgb2yuv, box;
  for (int W : {1, 2, 3, 5, 9, 15, 17, 23, 26, 33, 63, 70}) {
    const int cw = (W + 1) / 2;
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<float> y(W), u0(cw), u1(cw), v0(cw), v1(cw);
      for (auto* p : {&y, &u0, &u1, &v0, &v1})
        for (auto& v : *p) v = uni(-0.2, 1.2);
      const float fy = rep < 2 ? (rep == 0 ? 0.25f : 0.75f) : uni(0.0, 1.0);
      std::vector<float> r(W), g(W), b(W);
      sc.yuv_to_rgb_row(y.data(), u0.data(), u1.data(), v0.data(), v1.data(),
                        fy, W, cw, r.data(), g.data(), b.data());
      for (auto* p : {&r, &g, &b}) append_bytes(yuv2rgb, p->data(), W);
      for (auto* p : {&r, &g, &b})
        for (auto& v : *p) v = uni(-0.1, 1.1);
      std::vector<float> yo(W), uf(W), vf(W);
      sc.rgb_to_yuv_row(r.data(), g.data(), b.data(), W, yo.data(), uf.data(),
                        vf.data());
      for (auto* p : {&yo, &uf, &vf}) append_bytes(rgb2yuv, p->data(), W);
      // The box filter takes even widths; 2W keeps its output width odd.
      std::vector<float> f0(2 * W), f1(2 * W), out(W);
      for (auto* p : {&f0, &f1})
        for (auto& v : *p) v = uni(0.0, 1.0);
      sc.chroma_box_row(f0.data(), f1.data(), 2 * W, out.data());
      append_bytes(box, out.data(), W);
    }
  }

  // conv3x3 draws from its own generator, so its inputs left the other
  // families' alone. Its CRC was recorded from im2col_into +
  // matmul_bias_into on the same inputs before the family existed: the
  // direct kernel is that arithmetic. c = 40 crosses the AVX2 kernel's
  // input-channel chunk.
  std::vector<std::uint8_t> conv;
  {
    Rng crng(0xc3c3c3ULL);
    const auto cuni = [&crng](double lo, double hi) {
      const auto q = crng.uniform_int(std::llround(std::ldexp(lo, 22)),
                                      std::llround(std::ldexp(hi, 22)));
      return std::ldexp(static_cast<float>(q), -22);
    };
    struct Geo {
      int c, o, h, w;
      bool relu;
    };
    for (const Geo g : {Geo{3, 8, 5, 37, false}, Geo{8, 8, 4, 24, true},
                        Geo{16, 3, 3, 17, false}, Geo{40, 5, 2, 9, true}}) {
      const std::size_t rs = static_cast<std::size_t>(g.w) + 2;
      std::vector<float> in(static_cast<std::size_t>(g.c) * (g.h + 2) * rs);
      for (int c = 0; c < g.c; ++c)
        for (int y = 0; y < g.h; ++y)
          for (int x = 0; x < g.w; ++x)
            in[(static_cast<std::size_t>(c) * (g.h + 2) + y + 1) * rs + x + 1] =
                cuni(-2.0, 2.0);
      std::vector<float> wt(static_cast<std::size_t>(g.o) * 9 * g.c);
      std::vector<float> bias(static_cast<std::size_t>(g.o));
      for (auto& v : wt) v = cuni(-2.0, 2.0);
      for (auto& v : bias) v = cuni(-1.0, 1.0);
      std::vector<float> out(static_cast<std::size_t>(g.o) * g.h * g.w);
      sc.conv3x3(in.data(), rs, g.c, g.h, g.w, wt.data(), bias.data(), g.o,
                 g.relu, 0, g.h, out.data());
      append_bytes(conv, out.data(), out.size());
    }
  }

  // The training kernels draw from their own generator too. Their CRCs were
  // recorded from the im2col + GEMM training path on the same inputs before
  // the families existed: matmul_nt_into then Tensor::add_ for the weight
  // gradient, matmul_tn_into then col2im_add into a zeroed image for the
  // input gradient, and Conv2d::backward's serial row loop for the bias.
  // Odd widths make the weight gradient's lane chunks span rows (w = 3
  // spans three), and h*w % 8 != 0 gives it a tail.
  std::vector<std::uint8_t> dw, dx, row_sum;
  {
    Rng trng(0xd7d7d7ULL);
    const auto tuni = [&trng](double lo, double hi) {
      const auto q = trng.uniform_int(std::llround(std::ldexp(lo, 22)),
                                      std::llround(std::ldexp(hi, 22)));
      return std::ldexp(static_cast<float>(q), -22);
    };
    struct Geo {
      int c, o, h, w;
    };
    for (const Geo g : {Geo{3, 8, 5, 13}, Geo{8, 8, 4, 24}, Geo{16, 3, 3, 17},
                        Geo{8, 16, 6, 12}, Geo{5, 4, 7, 3}}) {
      const std::size_t rs = static_cast<std::size_t>(g.w) + 2;
      const std::size_t hw = static_cast<std::size_t>(g.h) * g.w;
      std::vector<float> in(static_cast<std::size_t>(g.c) * (g.h + 2) * rs);
      for (int c = 0; c < g.c; ++c)
        for (int y = 0; y < g.h; ++y)
          for (int x = 0; x < g.w; ++x)
            in[(static_cast<std::size_t>(c) * (g.h + 2) + y + 1) * rs + x + 1] =
                tuni(-2.0, 2.0);
      std::vector<float> dy(static_cast<std::size_t>(g.o) * hw);
      for (auto& v : dy) v = tuni(-2.0, 2.0);
      std::vector<float> wt(static_cast<std::size_t>(g.o) * 9 * g.c);
      for (auto& v : wt) v = tuni(-2.0, 2.0);
      std::vector<float> dwt(wt.size());
      for (auto& v : dwt) v = tuni(-1.0, 1.0);
      std::vector<float> bias_grad(static_cast<std::size_t>(g.o));
      for (auto& v : bias_grad) v = tuni(-1.0, 1.0);
      std::vector<float> dy_padded(static_cast<std::size_t>(g.o) * (g.h + 2) * rs);
      for (int k = 0; k < g.o; ++k)
        for (int y = 0; y < g.h; ++y)
          std::copy_n(dy.data() + k * hw + static_cast<std::size_t>(y) * g.w,
                      g.w,
                      dy_padded.data() +
                          (static_cast<std::size_t>(k) * (g.h + 2) + y + 1) * rs +
                          1);
      sc.conv3x3_dw(in.data(), rs, g.c, g.h, g.w, dy.data(), g.o, dwt.data());
      append_bytes(dw, dwt.data(), dwt.size());
      std::vector<float> din(static_cast<std::size_t>(g.c) * hw);
      sc.conv3x3_dx(dy_padded.data(), rs, g.o, g.h, g.w, wt.data(), g.c, 0,
                    g.c, din.data());
      append_bytes(dx, din.data(), din.size());
      sc.row_sum(dy.data(), g.o, static_cast<int>(hw), bias_grad.data());
      append_bytes(row_sum, bias_grad.data(), bias_grad.size());
    }
  }

  EXPECT_EQ(crc_of(dct), 0x5abb88cdu) << "dct";
  EXPECT_EQ(crc_of(idct), 0x3cb76327u) << "idct";
  EXPECT_EQ(crc_of(dequant_idct), 0xac54e690u) << "dequant_idct";
  EXPECT_EQ(crc_of(gemm), 0xffb3b734u) << "gemm";
  EXPECT_EQ(crc_of(yuv2rgb), 0xe8573542u) << "yuv2rgb";
  EXPECT_EQ(crc_of(rgb2yuv), 0xc2c486f7u) << "rgb2yuv";
  EXPECT_EQ(crc_of(box), 0x36f51ba9u) << "chroma_box";
  EXPECT_EQ(crc_of(conv), 0xa3b9eb97u) << "conv3x3";
  EXPECT_EQ(crc_of(dw), 0xb7c12832u) << "conv3x3_dw";
  EXPECT_EQ(crc_of(dx), 0xbdcbe55du) << "conv3x3_dx";
  EXPECT_EQ(crc_of(row_sum), 0x6fe42b0bu) << "row_sum";
}

// --- 8x8 transforms: exhaustive impulses + random sweeps --------------------

TEST(Simd, DctIdctImpulsesBitwise) {
  const auto& sc = simd::scalar_table();
  for (Backend b : simd_backends()) {
    const simd::KernelTable* t = simd::table_for(b);
    for (int i = 0; i < 64; ++i) {
      float in[64] = {};
      in[i] = 1.0f;
      float ref[64], got[64];
      sc.dct8x8(in, ref);
      t->dct8x8(in, got);
      ASSERT_TRUE(BitsEq(ref, got, 64, "dct8x8 impulse", b)) << "i=" << i;
      sc.idct8x8(in, ref);
      t->idct8x8(in, got);
      ASSERT_TRUE(BitsEq(ref, got, 64, "idct8x8 impulse", b)) << "i=" << i;
    }
  }
}

TEST(Simd, DctIdctRandomSweepBitwise) {
  const auto& sc = simd::scalar_table();
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (int it = 0; it < 2000; ++it) {
    float in[64];
    for (auto& v : in) v = dist(rng);
    float ref_d[64], ref_i[64];
    sc.dct8x8(in, ref_d);
    sc.idct8x8(in, ref_i);
    for (Backend b : simd_backends()) {
      const simd::KernelTable* t = simd::table_for(b);
      float got[64];
      t->dct8x8(in, got);
      ASSERT_TRUE(BitsEq(ref_d, got, 64, "dct8x8", b));
      t->idct8x8(in, got);
      ASSERT_TRUE(BitsEq(ref_i, got, 64, "idct8x8", b));
    }
  }
}

TEST(Simd, FusedDequantIdctMatchesTwoStepBitwise) {
  const auto& sc = simd::scalar_table();
  std::mt19937 rng(11);
  codec::Quantizer q(38);
  for (int it = 0; it < 2000; ++it) {
    std::int32_t levels[64];
    for (auto& l : levels) l = static_cast<std::int32_t>(rng() % 201) - 100;
    const float* steps = q.steps(it % 2 == 0);
    // Scalar fused == scalar two-step: the fusion must be a pure call-count
    // optimisation, not a numeric change.
    float deq[64], two[64], fused[64];
    sc.dequantize_block(levels, steps, deq);
    sc.idct8x8(deq, two);
    sc.dequant_idct8x8(levels, steps, fused);
    ASSERT_TRUE(
        BitsEq(two, fused, 64, "fused dequant_idct", Backend::kScalar));
    for (Backend b : simd_backends()) {
      const simd::KernelTable* t = simd::table_for(b);
      float got[64];
      t->dequant_idct8x8(levels, steps, got);
      ASSERT_TRUE(BitsEq(fused, got, 64, "dequant_idct8x8", b));
    }
  }
}

// --- quantiser: exhaustive near-tie inputs ----------------------------------

TEST(Simd, QuantizeHalfTiesBitwise) {
  const auto& sc = simd::scalar_table();
  codec::Quantizer q(38);
  const float* steps = q.steps(true);
  std::mt19937 rng(13);
  std::uniform_real_distribution<float> dist(-4.0f, 4.0f);
  for (int it = 0; it < 4000; ++it) {
    float coeffs[64];
    for (int i = 0; i < 64; ++i) {
      if (it % 3 == 0) {
        // Exact n+0.5 multiples of the step and their ulp neighbours: the
        // round-half-away-from-zero boundary where an inexact SIMD rounding
        // emulation would first diverge.
        float t = static_cast<float>(static_cast<int>(rng() % 2001) - 1000) +
                  0.5f;
        if (it % 9 == 0) t = std::nextafter(t, 0.0f);
        if (it % 9 == 3) t = std::nextafter(t, t * 4.0f + 10.0f);
        coeffs[i] = t * steps[i];
      } else {
        coeffs[i] = dist(rng);
      }
    }
    std::int32_t ref[64];
    sc.quantize_block(coeffs, steps, ref);
    float ref_deq[64];
    sc.dequantize_block(ref, steps, ref_deq);
    for (Backend b : simd_backends()) {
      const simd::KernelTable* t = simd::table_for(b);
      std::int32_t got[64];
      t->quantize_block(coeffs, steps, got);
      ASSERT_TRUE(BitsEq(ref, got, 64, "quantize_block", b));
      float got_deq[64];
      t->dequantize_block(ref, steps, got_deq);
      ASSERT_TRUE(BitsEq(ref_deq, got_deq, 64, "dequantize_block", b));
    }
  }
}

TEST(Simd, QuantizeMatchesLroundReference) {
  // The scalar oracle itself must implement round-half-away-from-zero.
  const auto& sc = simd::scalar_table();
  float coeffs[64];
  float steps[64];
  for (int i = 0; i < 64; ++i) steps[i] = 1.0f;
  const float cases[] = {0.0f, 0.49f, 0.5f, 0.51f, -0.49f, -0.5f, -0.51f,
                         1.5f, -1.5f, 2.5f, -2.5f, 100.5f, -100.5f};
  for (int i = 0; i < 64; ++i) coeffs[i] = cases[i % 13];
  std::int32_t got[64];
  sc.quantize_block(coeffs, steps, got);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(got[i], std::lround(coeffs[i])) << coeffs[i];
}

// --- GEMM tile: seeded sweeps over both A layouts and every extent --------

TEST(Simd, GemmTileSeededSweepBitwise) {
  const auto& sc = simd::scalar_table();
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  for (int it = 0; it < 300; ++it) {
    // Odd k values cover the tail of the accumulation chain; ldb/ldc wider
    // than 16 cover strided panels.
    const int kn = 1 + static_cast<int>(rng() % 300);
    const std::size_t ldb = 16 + (rng() % 3) * 8, ldc = 16 + (rng() % 3) * 8;
    // a_rs/a_ks: row-major (matmul) and transposed (matmul_tn) layouts.
    const bool tn = (it % 2) != 0;
    const std::size_t a_rs = tn ? 1 : static_cast<std::size_t>(kn);
    const std::size_t a_ks = tn ? 6 : 1;
    // Every third tile is full; the rest are edge tiles of any extent.
    const bool full = (it % 3) == 0;
    const int mr = full ? 6 : 1 + static_cast<int>(rng() % 6);
    const int nr = full ? 16 : 1 + static_cast<int>(rng() % 16);
    std::vector<float> A(static_cast<std::size_t>(6) * kn);
    std::vector<float> B(static_cast<std::size_t>(kn) * ldb);
    std::vector<float> C0(6 * ldc), C1(6 * ldc);
    for (auto& v : A) v = dist(rng);
    for (auto& v : B) v = dist(rng);
    for (std::size_t i = 0; i < C0.size(); ++i) C0[i] = C1[i] = dist(rng);
    sc.gemm_tile(A.data(), a_rs, a_ks, B.data(), ldb, C0.data(), ldc, mr, nr,
                 kn);
    // Only the mr x nr block is written.
    for (std::size_t i = 0; i < C0.size(); ++i) {
      if (static_cast<int>(i / ldc) >= mr || static_cast<int>(i % ldc) >= nr) {
        ASSERT_EQ(C0[i], C1[i]) << "mr=" << mr << " nr=" << nr << " i=" << i;
      }
    }
    for (Backend b : simd_backends()) {
      const simd::KernelTable* t = simd::table_for(b);
      std::vector<float> C2(C1);
      t->gemm_tile(A.data(), a_rs, a_ks, B.data(), ldb, C2.data(), ldc, mr, nr,
                   kn);
      ASSERT_TRUE(BitsEq(C0.data(), C2.data(), C0.size(), "gemm_tile", b))
          << "mr=" << mr << " nr=" << nr;
    }
  }
}

// --- im2col rows: odd sizes, strides, padding -------------------------------

TEST(Simd, Im2colRowOddSizesBitwise) {
  const auto& sc = simd::scalar_table();
  std::mt19937 rng(19);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (int H : {1, 3, 7, 16, 33})
    for (int W : {1, 5, 8, 17, 40})
      for (int kern : {1, 3})
        for (int stride : {1, 2})
          for (int pad : {0, kern / 2}) {
            const int oh = (H + 2 * pad - kern) / stride + 1;
            const int ow = (W + 2 * pad - kern) / stride + 1;
            if (oh <= 0 || ow <= 0) continue;
            std::vector<float> src(static_cast<std::size_t>(H) * W);
            for (auto& v : src) v = dist(rng);
            std::vector<float> ref(static_cast<std::size_t>(oh) * ow);
            for (int ky = 0; ky < kern; ++ky)
              for (int kx = 0; kx < kern; ++kx) {
                sc.im2col_row(src.data(), H, W, oh, ow, stride, pad, ky, kx,
                              ref.data());
                for (Backend b : simd_backends()) {
                  std::vector<float> got(ref.size(), -99.0f);
                  simd::table_for(b)->im2col_row(src.data(), H, W, oh, ow,
                                                 stride, pad, ky, kx,
                                                 got.data());
                  ASSERT_TRUE(BitsEq(ref.data(), got.data(), ref.size(),
                                     "im2col_row", b))
                      << "H=" << H << " W=" << W << " k=" << kern
                      << " s=" << stride << " p=" << pad;
                }
              }
          }
}

// --- direct 3x3 conv: channel, width and row-range sweep -------------------

TEST(Simd, Conv3x3MatchesScalarOracleBitwise) {
  const auto& sc = simd::scalar_table();
  std::mt19937 rng(29);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  constexpr float kCanary = -12345.0f;
  // c = 40 crosses the kernels' 32-channel chunk; o gives the AVX2 kernel
  // blocks of 1, 2, 3 and 4 channels and the AVX-512 one 8-channel blocks
  // with no remainder and remainders of 1, 2, 3 and 7; w covers tiles,
  // single vectors and masked tails of 8 and 16 lanes (48 and 63 end the
  // AVX-512 rows in a full and a 31-pixel tail); a wider row stride than
  // w + 2 checks in_rs is honoured.
  for (int C : {1, 3, 8, 16, 40})
    for (int O : {1, 2, 3, 7, 8, 9, 10, 16, 24})
      for (int W : {1, 2, 7, 8, 9, 15, 16, 17, 24, 37, 48, 63, 320}) {
        if (C == 40 && W == 320) continue;
        for (int H : {1, 2, 5}) {
          const std::size_t rs = static_cast<std::size_t>(W) + 2 + (W % 3);
          std::vector<float> in(static_cast<std::size_t>(C) * (H + 2) * rs,
                                0.0f);
          for (int c = 0; c < C; ++c)
            for (int y = 0; y < H; ++y)
              for (int x = 0; x < W; ++x)
                in[(static_cast<std::size_t>(c) * (H + 2) + y + 1) * rs + x +
                   1] = dist(rng);
          std::vector<float> wt(static_cast<std::size_t>(O) * 9 * C);
          std::vector<float> bias(static_cast<std::size_t>(O));
          for (auto& v : wt) v = dist(rng);
          for (auto& v : bias) v = dist(rng);
          // The output planes plus a trailing guard, all canary.
          const std::size_t plane = static_cast<std::size_t>(H) * W;
          const std::size_t n = static_cast<std::size_t>(O) * plane + 8;
          std::vector<std::pair<int, int>> ranges{{0, H}};
          if (H == 5) ranges.insert(ranges.end(), {{1, 4}, {2, 2}, {4, 5}});
          for (const auto& [y0, y1] : ranges)
            for (bool relu : {false, true}) {
              std::vector<float> ref(n, kCanary);
              sc.conv3x3(in.data(), rs, C, H, W, wt.data(), bias.data(), O,
                         relu, y0, y1, ref.data());
              for (std::size_t i = 0; i < n; ++i) {
                const int y = static_cast<int>((i % plane) / W);
                const bool written = i < n - 8 && y >= y0 && y < y1;
                if (!written) {
                  ASSERT_EQ(ref[i], kCanary) << "scalar wrote element " << i;
                } else if (relu) {
                  ASSERT_GE(ref[i], 0.0f);
                }
              }
              for (Backend b : simd_backends()) {
                std::vector<float> got(n, kCanary);
                simd::table_for(b)->conv3x3(in.data(), rs, C, H, W, wt.data(),
                                            bias.data(), O, relu, y0, y1,
                                            got.data());
                ASSERT_TRUE(BitsEq(ref.data(), got.data(), n, "conv3x3", b))
                    << "C=" << C << " O=" << O << " W=" << W << " H=" << H
                    << " rows=[" << y0 << "," << y1 << ") relu=" << relu;
              }
            }
        }
      }
}

// --- direct 3x3 conv backward: channel, width and height sweep -------------

// The zero-bordered layout the conv kernels read: c planes of (h+2) rows of
// rs floats, the h x w interior drawn from dist, the border zero.
std::vector<float> padded_planes(int c, int h, int w, std::size_t rs,
                                 std::mt19937& rng,
                                 std::uniform_real_distribution<float>& dist) {
  std::vector<float> p(static_cast<std::size_t>(c) * (h + 2) * rs, 0.0f);
  for (int ci = 0; ci < c; ++ci)
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        p[(static_cast<std::size_t>(ci) * (h + 2) + y + 1) * rs + x + 1] =
            dist(rng);
  return p;
}

TEST(Simd, Conv3x3BackwardMatchesScalarOracleBitwise) {
  const auto& sc = simd::scalar_table();
  std::mt19937 rng(31);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  constexpr float kCanary = -12345.0f;
  // o gives the weight gradient blocks of 1, 2, 3 and 4 output channels;
  // c, with the plane range [1, c - 1), gives dx blocks of 1, 2, 3 and 4
  // input channels and 8-channel blocks with no remainder and remainders of
  // 1, 2, 3, 6 and 7. Widths below 8 put several rows in one weight-gradient
  // lane chunk, other widths off the multiple of 8 make chunks cross one row
  // and give dx masked tails of 8 and 16 lanes; h*w % 8 != 0 gives the
  // weight gradient a scalar tail. A row stride wider than w + 2 checks that
  // in_rs and dy_rs are honoured.
  for (int C : {1, 3, 8, 9, 10, 16})
    for (int O : {1, 2, 3, 4, 8, 10, 16})
      for (int W : {1, 3, 7, 8, 12, 13, 17, 24, 40, 63})
        for (int H : {1, 2, 5}) {
          const std::size_t rs = static_cast<std::size_t>(W) + 2 + (W % 3);
          const std::size_t plane = static_cast<std::size_t>(H) * W;
          const std::vector<float> in = padded_planes(C, H, W, rs, rng, dist);
          const std::vector<float> dyp = padded_planes(O, H, W, rs, rng, dist);
          std::vector<float> dy(static_cast<std::size_t>(O) * plane);
          for (auto& v : dy) v = dist(rng);
          std::vector<float> wt(static_cast<std::size_t>(O) * 9 * C);
          for (auto& v : wt) v = dist(rng);
          // dwt and the row sums add into their outputs, so they start at
          // random values; dx is written, so it starts at the canary. Each
          // buffer has a trailing canary guard.
          std::vector<float> dwt0(wt.size() + 8, kCanary);
          std::vector<float> sums0(static_cast<std::size_t>(O) + 8, kCanary);
          for (std::size_t i = 0; i < wt.size(); ++i) dwt0[i] = dist(rng);
          for (int k = 0; k < O; ++k) sums0[static_cast<std::size_t>(k)] = dist(rng);
          const std::vector<float> dx0(static_cast<std::size_t>(C) * plane + 8,
                                       kCanary);
          // dx also writes a plane range alone; its other planes keep the
          // canary.
          std::vector<std::pair<int, int>> planes{{0, C}};
          if (C >= 3) planes.emplace_back(1, C - 1);
          std::vector<float> dwt_ref = dwt0, sums_ref = sums0;
          sc.conv3x3_dw(in.data(), rs, C, H, W, dy.data(), O, dwt_ref.data());
          sc.row_sum(dy.data(), O, static_cast<int>(plane), sums_ref.data());
          std::vector<std::vector<float>> dx_ref;
          for (const auto& [c0, c1] : planes) {
            dx_ref.push_back(dx0);
            sc.conv3x3_dx(dyp.data(), rs, O, H, W, wt.data(), C, c0, c1,
                          dx_ref.back().data());
            for (std::size_t i = 0; i < dx0.size(); ++i) {
              const auto ci = static_cast<int>(i / plane);
              if (ci < c0 || ci >= c1) {
                ASSERT_EQ(dx_ref.back()[i], kCanary)
                    << "scalar dx wrote element " << i;
              }
            }
          }
          const auto where = [&] {
            return "C=" + std::to_string(C) + " O=" + std::to_string(O) +
                   " W=" + std::to_string(W) + " H=" + std::to_string(H);
          };
          for (Backend b : simd_backends()) {
            const simd::KernelTable* t = simd::table_for(b);
            std::vector<float> dwt = dwt0, sums = sums0;
            t->conv3x3_dw(in.data(), rs, C, H, W, dy.data(), O, dwt.data());
            t->row_sum(dy.data(), O, static_cast<int>(plane), sums.data());
            ASSERT_TRUE(BitsEq(dwt_ref.data(), dwt.data(), dwt.size(),
                               "conv3x3_dw", b))
                << where();
            ASSERT_TRUE(BitsEq(sums_ref.data(), sums.data(), sums.size(),
                               "row_sum", b))
                << where();
            for (std::size_t r = 0; r < planes.size(); ++r) {
              std::vector<float> dx = dx0;
              t->conv3x3_dx(dyp.data(), rs, O, H, W, wt.data(), C,
                            planes[r].first, planes[r].second, dx.data());
              ASSERT_TRUE(BitsEq(dx_ref[r].data(), dx.data(), dx.size(),
                                 "conv3x3_dx", b))
                  << where() << " planes=[" << planes[r].first << ","
                  << planes[r].second << ")";
            }
          }
        }
}

// --- YUV rows: width sweep including tails ----------------------------------

TEST(Simd, YuvRowsWidthSweepBitwise) {
  const auto& sc = simd::scalar_table();
  std::mt19937 rng(23);
  std::uniform_real_distribution<float> dist(-0.2f, 1.2f);
  for (int W : {2, 4, 6, 8, 10, 14, 16, 18, 26, 34, 64, 66, 126}) {
    const int cw = W / 2;
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<float> yrow(W), u0(cw), u1(cw), v0(cw), v1(cw);
      for (auto* p : {&yrow, &u0, &u1, &v0, &v1})
        for (auto& v : *p) v = dist(rng);
      const float fy = (rep % 2) ? 0.25f : 0.75f;
      std::vector<float> r0(W), g0(W), b0(W);
      sc.yuv_to_rgb_row(yrow.data(), u0.data(), u1.data(), v0.data(),
                        v1.data(), fy, W, cw, r0.data(), g0.data(), b0.data());
      std::vector<float> yo0(W), uf0(W), vf0(W), box0(cw);
      sc.rgb_to_yuv_row(r0.data(), g0.data(), b0.data(), W, yo0.data(),
                        uf0.data(), vf0.data());
      sc.chroma_box_row(uf0.data(), vf0.data(), W, box0.data());
      for (Backend b : simd_backends()) {
        const simd::KernelTable* t = simd::table_for(b);
        std::vector<float> r1(W), g1(W), b1(W);
        t->yuv_to_rgb_row(yrow.data(), u0.data(), u1.data(), v0.data(),
                          v1.data(), fy, W, cw, r1.data(), g1.data(),
                          b1.data());
        ASSERT_TRUE(BitsEq(r0.data(), r1.data(), W, "yuv_to_rgb_row r", b))
            << "W=" << W;
        ASSERT_TRUE(BitsEq(g0.data(), g1.data(), W, "yuv_to_rgb_row g", b))
            << "W=" << W;
        ASSERT_TRUE(BitsEq(b0.data(), b1.data(), W, "yuv_to_rgb_row b", b))
            << "W=" << W;
        std::vector<float> yo1(W), uf1(W), vf1(W), box1(cw);
        t->rgb_to_yuv_row(r0.data(), g0.data(), b0.data(), W, yo1.data(),
                          uf1.data(), vf1.data());
        ASSERT_TRUE(BitsEq(yo0.data(), yo1.data(), W, "rgb_to_yuv_row y", b));
        ASSERT_TRUE(BitsEq(uf0.data(), uf1.data(), W, "rgb_to_yuv_row u", b));
        ASSERT_TRUE(BitsEq(vf0.data(), vf1.data(), W, "rgb_to_yuv_row v", b));
        t->chroma_box_row(uf0.data(), vf0.data(), W, box1.data());
        ASSERT_TRUE(
            BitsEq(box0.data(), box1.data(), cw, "chroma_box_row", b));
      }
    }
  }
}

// --- end-to-end: public API under a scoped backend swap ---------------------

TEST(Simd, ConvertRoundTripIdenticalAcrossBackends) {
  const int W = 70, H = 38;  // not multiples of 8: exercises row tails
  FrameRGB rgb(W, H);
  std::mt19937 rng(31);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  for (Plane* p : {&rgb.r, &rgb.g, &rgb.b})
    for (int y = 0; y < H; ++y)
      for (int x = 0; x < W; ++x) p->at(x, y) = dist(rng);

  FrameYUV yuv_ref;
  FrameRGB rgb_ref;
  {
    simd::ScopedBackendForTest guard(Backend::kScalar);
    yuv_ref = rgb_to_yuv420(rgb);
    rgb_ref = yuv420_to_rgb(yuv_ref);
  }
  for (Backend b : simd_backends()) {
    simd::ScopedBackendForTest guard(b);
    const FrameYUV yuv = rgb_to_yuv420(rgb);
    ASSERT_TRUE(BitsEq(yuv.y.data(), yuv_ref.y.data(), yuv.y.size(),
                       "rgb_to_yuv420 y", b));
    ASSERT_TRUE(BitsEq(yuv.u.data(), yuv_ref.u.data(), yuv.u.size(),
                       "rgb_to_yuv420 u", b));
    ASSERT_TRUE(BitsEq(yuv.v.data(), yuv_ref.v.data(), yuv.v.size(),
                       "rgb_to_yuv420 v", b));
    const FrameRGB back = yuv420_to_rgb(yuv);
    ASSERT_TRUE(BitsEq(back.r.data(), rgb_ref.r.data(), back.r.size(),
                       "yuv420_to_rgb r", b));
    ASSERT_TRUE(BitsEq(back.g.data(), rgb_ref.g.data(), back.g.size(),
                       "yuv420_to_rgb g", b));
    ASSERT_TRUE(BitsEq(back.b.data(), rgb_ref.b.data(), back.b.size(),
                       "yuv420_to_rgb b", b));
  }
}

TEST(Simd, CodecBlockPathIdenticalAcrossBackends) {
  std::mt19937 rng(37);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  codec::Quantizer q(32);
  for (int it = 0; it < 200; ++it) {
    codec::Block8 spatial{};
    for (auto& v : spatial) v = dist(rng);
    const bool intra = (it % 2) == 0;
    codec::Levels8 lv_ref{};
    codec::Block8 rec_ref{};
    {
      simd::ScopedBackendForTest guard(Backend::kScalar);
      lv_ref = codec::forward_block(spatial, q, intra);
      rec_ref = codec::reconstruct_block(lv_ref, q, intra);
    }
    for (Backend b : simd_backends()) {
      simd::ScopedBackendForTest guard(b);
      const codec::Levels8 lv = codec::forward_block(spatial, q, intra);
      ASSERT_EQ(lv, lv_ref) << simd::backend_name(b);
      const codec::Block8 rec = codec::reconstruct_block(lv, q, intra);
      ASSERT_TRUE(
          BitsEq(rec.data(), rec_ref.data(), 64, "reconstruct_block", b));
    }
  }
}

}  // namespace
}  // namespace dcsr

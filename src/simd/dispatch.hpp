#pragma once

#include <stdexcept>
#include <string>

#include "simd/kernels.hpp"

namespace dcsr::simd {

/// Runtime-dispatched SIMD kernel backends.
///
/// Three backends exist: the scalar kernels in kernels_scalar.cpp, which are
/// the bit-exact reference oracle; AVX2+FMA, which overrides every kernel
/// family with byte-identical outputs; and AVX-512, a tier on top of AVX2
/// that overrides the two direct-conv families whose lanes are output
/// pixels (conv3x3, conv3x3_dx) and keeps the AVX2 kernel for every other
/// family. The oracle writes each fused multiply-add as std::fma and the
/// tree compiles with -ffp-contract=off (root CMakeLists.txt), so the
/// kernels' bits do not depend on the build type or -march, and the backend
/// is an invisible implementation detail: results are bit-identical across
/// backends. Simd.ScalarOracleGoldenCrc pins the oracle's own bits, the
/// other Simd.* tests pin every other backend against it, and
/// tools/run_checks.sh's `simd` leg re-runs the whole tier-1 suite once per
/// host-supported backend.
///
/// Selection happens once, on first use:
///   - `DCSR_SIMD=scalar|avx2|avx512` forces a backend. Naming a backend
///     the host cannot run (or an unknown value) throws SimdDispatchError —
///     loud, so perf numbers are never silently attributed to the wrong
///     backend.
///   - Unset: the best one the host supports (cpuid), avx512 > avx2 >
///     scalar.
///
/// Intrinsics are confined to src/simd/ (lint rule [raw-intrinsics]); all
/// call sites go through active(). Kernels compose with the existing
/// parallel_for_writes claims — they only ever replace the *inner loop* of a
/// chunk, never change what a chunk writes.

/// Thrown when DCSR_SIMD requests a backend the host cannot run or names an
/// unknown backend.
class SimdDispatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Display / env-var name of a backend ("scalar", "avx2", "avx512").
const char* backend_name(Backend b) noexcept;

/// Parses a DCSR_SIMD value. Throws SimdDispatchError on unknown names; the
/// value must match a backend name exactly (no trailing garbage), mirroring
/// the strict DCSR_THREADS parsing.
Backend parse_backend(const std::string& value);

/// Whether this host can execute the given backend's instructions (cpuid on
/// x86). kScalar is always supported.
bool host_supports(Backend b) noexcept;

/// The kernel table for a backend, or nullptr if the host cannot run it.
/// Test surface: lets the Simd.* suite pin every supported backend against
/// the scalar table in one process, regardless of DCSR_SIMD.
const KernelTable* table_for(Backend b) noexcept;

/// The active kernel table. Resolved once from DCSR_SIMD / cpuid on first
/// call; throws SimdDispatchError if DCSR_SIMD names an unknown or
/// unsupported backend.
const KernelTable& active();

/// Backend of the active table.
Backend active_backend();

/// One-line dispatch report naming the active backend and the origin of
/// every kernel family, e.g.
///   "dcsr-simd: backend=avx2 dct=avx2 idct=avx2 ... gemm=avx2"
/// Benches and the tools/ CLIs print this at startup so recorded perf
/// numbers are attributable to a backend.
std::string report();

/// Replaces the active table for the duration of a test (RAII restore).
/// Test-only: swapping while kernels are in flight on other threads is a
/// race; the Simd.* suite swaps only from a quiescent main thread.
class ScopedBackendForTest {
 public:
  explicit ScopedBackendForTest(Backend b);
  ~ScopedBackendForTest();
  ScopedBackendForTest(const ScopedBackendForTest&) = delete;
  ScopedBackendForTest& operator=(const ScopedBackendForTest&) = delete;

 private:
  const KernelTable* saved_;
};

}  // namespace dcsr::simd

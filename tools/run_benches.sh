#!/usr/bin/env bash
# Runs the micro-kernel benchmarks and records the results as
# BENCH_kernels.json at the repo root, giving future PRs a perf trajectory
# to diff against. Includes the steady-state playback bench
# (BM_EdsrEnhanceSteadyState), whose ws_miss_per_frame / ws_hit_per_frame
# counters land in the JSON — ws_miss_per_frame must read 0.
#
# Also runs the fleet-scale serving simulator (dcsr_fleet) at 1e5 and 1e6
# sessions plus a popularity-skew sweep and the --sr-demo cross-session SR
# batching comparison (dense fleet, windows {0,50,250} ms) and records
# BENCH_fleet.json: sessions/sec, per-tier hit rates, model bytes/user and
# SR batch occupancy / server seconds — the fleet trajectory the ROADMAP's
# "millions of users" item asks for plus the serving-tier batching deltas.
#
# Refuses to record numbers from a non-Release build: an -O0 run looks like
# a 10-30x regression and would poison the trajectory. Set
# DCSR_BENCH_ALLOW_DEBUG=1 to override; the run then proceeds but the JSON
# still self-identifies via its dcsr_build_type context field (stamped into
# the binary from CMAKE_BUILD_TYPE), so the artifact cannot masquerade as a
# Release measurement.
#
# The bench binary also stamps dcsr_simd_backend / dcsr_simd_dispatch into
# the JSON context; select a backend with DCSR_SIMD=scalar|avx2|avx512
# (the default is the best one the host runs).
# Usage: tools/run_benches.sh [extra benchmark args...]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"

if [ ! -x "$BUILD/bench/bench_micro_kernels" ]; then
  cmake -B "$BUILD" -S "$ROOT"
  cmake --build "$BUILD" -j "$(nproc)" --target bench_micro_kernels
fi

build_type=""
if [ -f "$BUILD/CMakeCache.txt" ]; then
  build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt")"
fi
case "$build_type" in
  Release|RelWithDebInfo) ;;
  *)
    if [ "${DCSR_BENCH_ALLOW_DEBUG:-0}" != "1" ]; then
      echo "run_benches.sh: refusing to benchmark a '${build_type:-unknown}'" \
           "build at $BUILD" >&2
      echo "  configure with -DCMAKE_BUILD_TYPE=Release (or RelWithDebInfo)," \
           "or set DCSR_BENCH_ALLOW_DEBUG=1 to record anyway" >&2
      exit 1
    fi
    echo "run_benches.sh: WARNING recording from a '${build_type:-unknown}'" \
         "build — numbers are NOT comparable to Release runs" >&2
    ;;
esac

"$BUILD/bench/bench_micro_kernels" \
  --benchmark_format=json \
  --benchmark_out="$ROOT/BENCH_kernels.json" \
  --benchmark_out_format=json \
  "$@" >/dev/null

echo "wrote $ROOT/BENCH_kernels.json"

if [ ! -x "$BUILD/tools/dcsr_fleet" ]; then
  cmake --build "$BUILD" -j "$(nproc)" --target dcsr_fleet
fi
"$BUILD/tools/dcsr_fleet" \
  --sessions 100000,1000000 \
  --videos 2000 --skew 0.8 --seed 1 --edge-mb 16 \
  --sweep-skew "0.2,0.6,1.0,1.4" \
  --sr-demo \
  --json "$ROOT/BENCH_fleet.json"

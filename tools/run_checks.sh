#!/usr/bin/env bash
# Single verification gate for the tree. Runs ten legs, each test leg in
# its own build directory so instrumented artifacts never mix:
#
#   default     RelWithDebInfo build + full ctest suite (includes the
#               Lint.SelfTest / Lint.SrcTree invariant checks and the
#               Fuzz.*Smoke / FuzzCorpus.* deterministic-fuzz gates), then
#               fails if any "<N> tests" count in README.md differs from
#               ctest -N's total, and prints "src-loc: <N>", the line count
#               over src/**/*.{cpp,hpp} (informational, never fails)
#   checked     -DDCSR_CHECKED=ON: every runtime invariant checker on —
#               the parallel_for_writes claim race detector, bounds-checked
#               tensor access, workspace NaN poisoning, per-layer
#               finiteness scans and the hot-path heap auditor (the full
#               suite runs with DCSR_ALLOC_CHECK enforcement live, so any
#               unsanctioned allocation inside a guarded hot path fails
#               its test) and the claim-containment auditor forced live
#               (DCSR_CLAIM_CONTAIN=1: every parallel_for_writes region
#               replays its canonical decomposition serially with byte-level
#               write auditing, so a kernel whose writes escape its declared
#               claim fails with a ClaimContainmentError) — including the
#               checked-build negative tests
#   asan        AddressSanitizer + UndefinedBehaviorSanitizer, full suite
#   tsan        ThreadSanitizer, full suite forced to DCSR_THREADS=4 so the
#               pool, the segment pipeline and the shared-model inference
#               paths actually run multi-threaded under the detector
#   simd        full ctest suite once per SIMD backend the host supports
#               (DCSR_SIMD=scalar/avx2/avx512 in the default build), so every
#               kernel backend — not just the one the dispatcher would pick
#               — passes the whole tree. Also asserts the negative path:
#               requesting an unknown backend name must fail loudly. Then
#               builds the whole tree as Release in build-release, runs the
#               full suite there (every exact-byte pin must hold without
#               -march=native), cmp's the synth/decode/deploy outputs of
#               dcsr_cli, the quickstart stdout and the dcsr_fleet --json
#               summary against the default build's, and, on an AVX2 host,
#               fails if the Release dispatch line names any family =scalar
#               (on an AVX-512 host, also unless conv3x3 and conv3x3_dx
#               read =avx512).
#   bench-smoke every microbenchmark for a single iteration in the default
#               build — catches bench bit-rot (and exercises the
#               steady-state workspace counters) without a timed run
#   fuzz-smoke  dcsr_fuzz all harnesses, 10k seeded iterations each, in the
#               ASan/UBSan build — any contract escape (UB, crash, untyped
#               exception) fails the leg and prints the repro command
#   fleet-smoke dcsr_fleet at a small session count in the checked build
#               (every invariant checker on), run once under DCSR_THREADS=1
#               and once under DCSR_THREADS=4 — the two JSON artifacts must
#               be byte-identical, pinning the fleet determinism contract
#               (including the per-event heap-allocation counters) end to
#               end through the CLI
#   decode-smoke dcsr_cli in the checked build: synth the same video at
#               slice counts 1/2/4, decode every container under both
#               DCSR_THREADS=1 and =4, and byte-diff all six raw-YUV dumps
#               against each other — decoded output must be bit-identical
#               across slice counts AND thread counts. Then the same
#               six-way comparison on a deblocked, intra-period-5 video
#               (synth's deblock argument): the one place a loop-filtered
#               stream is decoded through the CLI, its P and B frames
#               predicting from filtered references. Also synthesises an
#               intra-period-12 video under DCSR_THREADS=1 and =4 and
#               byte-compares the two containers (the encoder's closed GOPs
#               run concurrently, replayed by the containment auditor), and
#               checks that a container whose magic is overwritten to v2
#               (sliceless frames, no longer read) fails with exit 1 and
#               "v2" on stderr. Last, deploys the news video under
#               DCSR_THREADS=1 and =4 and compares the per-model CRC-32 lines
#               of the fp32 weights deploy prints, and the two models.bin
#               (lockstep micro-model training), then deploys it once more
#               under DCSR_SIMD=scalar and compares its CRC-32 lines with
#               the default backend's (the training kernels' oracles
#               against their AVX2 overrides, through the whole server).
#               Finally plays the DCSR_THREADS=1 deployment with dcsr_cli
#               play under DCSR_THREADS=1 and =4 and byte-compares the two
#               stdouts (LOW and dcSR PSNR/SSIM).
#   tidy        clang-tidy over every translation unit in src/ against the
#               checked-in .clang-tidy, driven by the default build's
#               compile_commands.json; any diagnostic fails the leg. If
#               clang-tidy is not installed the leg SKIPs loudly (still
#               exits 0) rather than failing a host without LLVM tooling.
#
# Every leg configures its build with -DDCSR_WERROR=ON: the gate never
# accretes warnings, while the tier-1 build stays plain -Wall -Wextra. Builds
# and ctest runs take -j "$(nproc)": a bare ctest -j runs one test at a time.
#
# Usage: tools/run_checks.sh [leg...]
#   e.g. tools/run_checks.sh            # all ten legs
#        tools/run_checks.sh tsan       # just the TSan leg
#        tools/run_checks.sh default checked fuzz-smoke
#
# Prints a per-leg summary and exits nonzero if any leg fails.
set -uo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

LEGS=("$@")
if [ ${#LEGS[@]} -eq 0 ]; then
  LEGS=(default checked asan tsan simd bench-smoke fuzz-smoke fleet-smoke decode-smoke tidy)
fi

declare -A STATUS

# Fails if a test count README.md states ("<N> tests") differs from the
# suite's own total in `ctest -N`, so the documented count cannot go stale.
check_readme_test_count() {
  local build="$1" total stated bad=0
  total="$(ctest --test-dir "$build" -N | sed -n 's/^Total Tests: *//p')"
  if [ -z "$total" ]; then
    echo "readme-count: ctest -N printed no 'Total Tests:' line"
    return 1
  fi
  while read -r stated; do
    if [ "$stated" != "$total" ]; then
      echo "readme-count: README.md states $stated tests, ctest -N has $total"
      bad=1
    fi
  done < <(grep -oE '\b[0-9]+ tests\b' "$ROOT/README.md" | cut -d' ' -f1)
  [ "$bad" -eq 0 ] && echo "readme-count: README.md matches ctest -N ($total tests)"
  return "$bad"
}

# Prints the line count over src/**/*.{cpp,hpp}, so a change's LOC delta is
# read from the gate's log. Informational only: it never fails the leg.
print_src_loc() {
  local n
  n="$(find "$ROOT/src" -type f \( -name '*.cpp' -o -name '*.hpp' \) \
         -exec cat {} + | wc -l)"
  echo "src-loc: $n"
}

run_leg() {
  local leg="$1" build cmake_args=() env_prefix=()
  case "$leg" in
    default)
      # Same configuration as the tier-1 build; reuses its directory.
      build="${DEFAULT_BUILD_DIR:-$ROOT/build}"
      ;;
    checked)
      build="${CHECKED_BUILD_DIR:-$ROOT/build-checked}"
      cmake_args+=(-DDCSR_CHECKED=ON)
      # Both auditors default on in a checked build; forcing them here
      # makes this the leg that runs the whole suite with the heap auditor
      # throwing and every parallel_for_writes kernel held to "writes stay
      # inside the claim", even where the environment disabled them.
      env_prefix=(env DCSR_CLAIM_CONTAIN=1 DCSR_ALLOC_CHECK=1)
      ;;
    asan)
      build="${SAN_BUILD_DIR:-$ROOT/build-san}"
      cmake_args+=(-DDCSR_SANITIZE=address,undefined)
      # halt_on_error: UBSan already aborts via -fno-sanitize-recover; make
      # ASan leak/heap reports fail the run too instead of printing on.
      export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
      export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
      ;;
    tsan)
      build="${TSAN_BUILD_DIR:-$ROOT/build-tsan}"
      cmake_args+=(-DDCSR_SANITIZE=thread)
      export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
      env_prefix=(env DCSR_THREADS=4)
      ;;
    simd)
      # Tier-1 suite once per SIMD backend. The bench binary validates
      # DCSR_SIMD in main() before running anything, so it doubles as a
      # cheap support probe: exit 0 = backend available on this host.
      build="${DEFAULT_BUILD_DIR:-$ROOT/build}"
      echo
      echo "=== leg: $leg (build dir: $build) ==="
      cmake -B "$build" -S "$ROOT" -DDCSR_WERROR=ON || return 1
      cmake --build "$build" -j "$(nproc)" || return 1
      local probe="$build/bench/bench_micro_kernels"
      if env DCSR_SIMD=definitely-not-a-backend \
          "$probe" --benchmark_list_tests=true >/dev/null 2>&1; then
        echo "simd leg: unknown DCSR_SIMD value was silently accepted" >&2
        return 1
      fi
      local b ran=0
      for b in scalar avx2 avx512; do
        if env DCSR_SIMD="$b" \
            "$probe" --benchmark_list_tests=true >/dev/null 2>&1; then
          echo "--- simd leg: full suite with DCSR_SIMD=$b ---"
          env DCSR_SIMD="$b" ctest --test-dir "$build" --output-on-failure \
            -j "$(nproc)" || return 1
          ran=$((ran + 1))
        else
          echo "--- simd leg: backend '$b' unsupported on this host," \
               "dispatcher refused it (expected) ---"
        fi
      done
      # scalar is always compiled in; zero passes means the probe is broken.
      [ "$ran" -ge 1 ] || { echo "simd leg: no backend ran" >&2; return 1; }
      # Results must not depend on the build type: a Release build passes
      # the whole suite (exact-byte pins included) and writes the same bytes
      # as the default build through every CLI surface.
      local rel="${RELEASE_BUILD_DIR:-$ROOT/build-release}"
      echo "--- simd leg: full suite in a Release build ($rel) ---"
      cmake -B "$rel" -S "$ROOT" -DDCSR_WERROR=ON \
        -DCMAKE_BUILD_TYPE=Release || return 1
      cmake --build "$rel" -j "$(nproc)" || return 1
      ctest --test-dir "$rel" --output-on-failure -j "$(nproc)" || return 1
      echo "--- simd leg: default and Release builds write the same bytes ---"
      local d o f
      for d in "$build" "$rel"; do
        o="$d/cross-build"
        rm -rf "$o" && mkdir -p "$o" || return 1
        "$d/tools/dcsr_cli" synth "$o/sports.dcv" sports 1 4 30 2 \
          >/dev/null || return 1
        "$d/tools/dcsr_cli" decode "$o/sports.dcv" "$o/sports.yuv" \
          >/dev/null || return 1
        "$d/tools/dcsr_cli" deploy "$o/deploy" news 5 60 >/dev/null || return 1
        "$d/examples/quickstart" >"$o/quickstart.txt" || return 1
        "$d/tools/dcsr_fleet" --json "$o/fleet-timed.json" >/dev/null ||
          return 1
        # Wall-clock throughput is the one field allowed to differ.
        grep -v -e '"wall_seconds"' -e '"sessions_per_second"' \
          "$o/fleet-timed.json" >"$o/fleet.json" || return 1
      done
      for f in sports.dcv sports.yuv deploy/video.dcv deploy/models.bin \
               deploy/playlist.txt deploy/meta.txt quickstart.txt fleet.json; do
        if ! cmp "$build/cross-build/$f" "$rel/cross-build/$f"; then
          echo "simd leg: $f differs between the default and Release" \
               "builds" >&2
          return 1
        fi
      done
      echo "simd leg: default and Release outputs byte-identical"
      probe="$rel/bench/bench_micro_kernels"
      if env DCSR_SIMD=avx2 \
          "$probe" --benchmark_list_tests=true >/dev/null 2>&1; then
        local line
        line="$("$probe" --benchmark_list_tests=true 2>&1 >/dev/null |
                grep '^dcsr-simd:')"
        echo "$line"
        if [ -z "$line" ] || [[ "$line" == *=scalar* ]]; then
          echo "simd leg: Release build on an AVX2 host has no dispatch" \
               "line or dispatches a family to scalar" >&2
          return 1
        fi
        if env DCSR_SIMD=avx512 \
            "$probe" --benchmark_list_tests=true >/dev/null 2>&1; then
          local fam
          for fam in conv3x3 conv3x3_dx; do
            if [[ " $line " != *" $fam=avx512 "* ]]; then
              echo "simd leg: Release build on an AVX-512 host does not" \
                   "dispatch $fam to avx512" >&2
              return 1
            fi
          done
        fi
      fi
      return 0
      ;;
    bench-smoke)
      # Every benchmark, one iteration each, in the default build. Not a
      # perf measurement — a does-it-still-run gate for the bench binary.
      build="${DEFAULT_BUILD_DIR:-$ROOT/build}"
      echo
      echo "=== leg: $leg (build dir: $build) ==="
      cmake -B "$build" -S "$ROOT" -DDCSR_WERROR=ON || return 1
      cmake --build "$build" -j "$(nproc)" --target bench_micro_kernels || return 1
      "$build/bench/bench_micro_kernels" --benchmark_min_time=0 || return 1
      return 0
      ;;
    fuzz-smoke)
      # Long deterministic fuzz pass under ASan/UBSan (shares the asan leg's
      # build directory). The ctest Fuzz.*Smoke gates run a short slice of
      # the same loops in every build; this leg is the deeper sweep.
      build="${SAN_BUILD_DIR:-$ROOT/build-san}"
      export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
      export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
      echo
      echo "=== leg: $leg (build dir: $build) ==="
      cmake -B "$build" -S "$ROOT" -DDCSR_WERROR=ON -DDCSR_SANITIZE=address,undefined || return 1
      cmake --build "$build" -j "$(nproc)" --target dcsr_fuzz || return 1
      "$build/tools/dcsr_fuzz" all --iters 10000 --seed 1 || return 1
      return 0
      ;;
    fleet-smoke)
      # Fleet simulator end-to-end through the CLI, small session count,
      # checked build (shares the checked leg's directory). Two runs at
      # different thread counts must emit byte-identical JSON: the sweep's
      # parallel_for_writes claims plus the serial per-run event loop make
      # the summary independent of DCSR_THREADS by construction, and this
      # leg holds the CLI to it.
      build="${CHECKED_BUILD_DIR:-$ROOT/build-checked}"
      echo
      echo "=== leg: $leg (build dir: $build) ==="
      cmake -B "$build" -S "$ROOT" -DDCSR_WERROR=ON -DDCSR_CHECKED=ON || return 1
      cmake --build "$build" -j "$(nproc)" --target dcsr_fleet || return 1
      local fa="$build/fleet-smoke-t1.json" fb="$build/fleet-smoke-t4.json"
      env DCSR_THREADS=1 "$build/tools/dcsr_fleet" \
        --sessions 5000 --videos 200 --sweep-skew "0.4,1.2" \
        --json "$fa" || return 1
      env DCSR_THREADS=4 "$build/tools/dcsr_fleet" \
        --sessions 5000 --videos 200 --sweep-skew "0.4,1.2" \
        --json "$fb" || return 1
      # Strip throughput fields before diffing: wall-clock timing is the one
      # part of the artifact that legitimately varies between runs.
      if ! diff <(grep -v -e '"wall_seconds"' -e '"sessions_per_second"' "$fa") \
                <(grep -v -e '"wall_seconds"' -e '"sessions_per_second"' "$fb"); then
        echo "fleet-smoke: DCSR_THREADS=1 and =4 runs disagree" >&2
        return 1
      fi
      echo "fleet-smoke: summaries bit-identical across thread counts"
      return 0
      ;;
    decode-smoke)
      # Slice-parallel decode determinism end-to-end through the CLI in the
      # checked build: the same source encoded at 1/2/4 slices, decoded at
      # 1 and 4 threads, must produce byte-identical raw-YUV dumps — the
      # restricted-intra slice format guarantees reconstruction does not
      # depend on the slice partition, and parallel_for_writes' disjoint
      # row claims guarantee it does not depend on the thread count.
      build="${CHECKED_BUILD_DIR:-$ROOT/build-checked}"
      echo
      echo "=== leg: $leg (build dir: $build) ==="
      cmake -B "$build" -S "$ROOT" -DDCSR_WERROR=ON -DDCSR_CHECKED=ON || return 1
      cmake --build "$build" -j "$(nproc)" --target dcsr_cli || return 1
      local cli="$build/tools/dcsr_cli" s t ref=""
      # Encoder determinism: closed GOPs encode concurrently, so the
      # container bytes must not depend on the thread count.
      for t in 1 4; do
        env DCSR_THREADS="$t" "$cli" synth "$build/decode-smoke-gop-t$t.dcv" \
          sports 7 2 30 2 12 >/dev/null || return 1
      done
      if ! cmp -s "$build/decode-smoke-gop-t1.dcv" "$build/decode-smoke-gop-t4.dcv"; then
        echo "decode-smoke: intra-period-12 containers differ between" \
             "DCSR_THREADS=1 and =4" >&2
        return 1
      fi
      echo "decode-smoke: encoded container bit-identical across threads {1,4}"
      for s in 1 2 4; do
        "$cli" synth "$build/decode-smoke-s$s.dcv" sports 7 2 30 "$s" \
          >/dev/null || return 1
        for t in 1 4; do
          env DCSR_THREADS="$t" "$cli" decode "$build/decode-smoke-s$s.dcv" \
            "$build/decode-smoke-s$s-t$t.yuv" >/dev/null || return 1
          if [ -z "$ref" ]; then
            ref="$build/decode-smoke-s$s-t$t.yuv"
          elif ! cmp -s "$ref" "$build/decode-smoke-s$s-t$t.yuv"; then
            echo "decode-smoke: slices=$s DCSR_THREADS=$t output differs" \
                 "from $ref" >&2
            return 1
          fi
        done
      done
      echo "decode-smoke: YUV bit-identical across slices {1,2,4} x threads {1,4}"
      # The same check on a loop-filtered stream with an I frame every 5
      # frames: its P frames predict from deblocked references.
      ref=""
      for s in 1 2 4; do
        "$cli" synth "$build/decode-smoke-db-s$s.dcv" sports 7 2 30 "$s" 5 1 \
          >/dev/null || return 1
        for t in 1 4; do
          env DCSR_THREADS="$t" "$cli" decode "$build/decode-smoke-db-s$s.dcv" \
            "$build/decode-smoke-db-s$s-t$t.yuv" >/dev/null || return 1
          if [ -z "$ref" ]; then
            ref="$build/decode-smoke-db-s$s-t$t.yuv"
          elif ! cmp -s "$ref" "$build/decode-smoke-db-s$s-t$t.yuv"; then
            echo "decode-smoke: deblocked slices=$s DCSR_THREADS=$t output" \
                 "differs from $ref" >&2
            return 1
          fi
        done
      done
      echo "decode-smoke: deblocked intra-period-5 YUV bit-identical across" \
           "slices {1,2,4} x threads {1,4}"
      # Container v2 (sliceless frames) is no longer read: a container whose
      # magic says v2 must fail with exit status 1 and an error naming v2.
      local v2="$build/decode-smoke-v2.dcv" rc=0
      cp "$build/decode-smoke-s1.dcv" "$v2" || return 1
      printf '\x32' | dd of="$v2" bs=1 count=1 conv=notrunc 2>/dev/null || return 1
      "$cli" decode "$v2" "$build/decode-smoke-v2.yuv" >/dev/null \
        2>"$build/decode-smoke-v2.err" || rc=$?
      if [ "$rc" -ne 1 ] || ! grep -q '^error: .*v2' "$build/decode-smoke-v2.err"; then
        echo "decode-smoke: a v2 container must be rejected with exit 1 and" \
             "'v2' on stderr (exit $rc)" >&2
        cat "$build/decode-smoke-v2.err" >&2
        return 1
      fi
      echo "decode-smoke: v2 container rejected by name"
      # Server training determinism: deploy trains every cluster's micro
      # model in lockstep, one parallel region per step over all (cluster,
      # batch item) units, so the models must not depend on the thread count.
      # models.bin holds fp16 weights; the "model <label>: ... crc32" lines
      # deploy prints cover the fp32 weights behind them.
      for t in 1 4; do
        rm -rf "$build/decode-smoke-deploy-t$t"
        env DCSR_THREADS="$t" "$cli" deploy "$build/decode-smoke-deploy-t$t" \
          news 5 60 | grep '^model ' >"$build/decode-smoke-deploy-t$t.crc" \
          || return 1
      done
      if ! cmp -s "$build/decode-smoke-deploy-t1.crc" \
                  "$build/decode-smoke-deploy-t4.crc"; then
        echo "decode-smoke: fp32 micro-model CRCs differ between" \
             "DCSR_THREADS=1 and =4" >&2
        diff "$build/decode-smoke-deploy-t1.crc" \
             "$build/decode-smoke-deploy-t4.crc" >&2
        return 1
      fi
      if ! cmp -s "$build/decode-smoke-deploy-t1/models.bin" \
                  "$build/decode-smoke-deploy-t4/models.bin"; then
        echo "decode-smoke: deployed micro models differ between" \
             "DCSR_THREADS=1 and =4" >&2
        return 1
      fi
      echo "decode-smoke: deployed micro models (fp32 CRCs and models.bin)" \
           "bit-identical across threads {1,4}"
      # The same deploy on the scalar oracle: every kernel the server runs,
      # the direct conv training kernels included, must train the bits of
      # the default backend (the best one the host supports).
      rm -rf "$build/decode-smoke-deploy-scalar"
      env DCSR_SIMD=scalar "$cli" deploy "$build/decode-smoke-deploy-scalar" \
        news 5 60 | grep '^model ' >"$build/decode-smoke-deploy-scalar.crc" \
        || return 1
      if ! cmp -s "$build/decode-smoke-deploy-t1.crc" \
                  "$build/decode-smoke-deploy-scalar.crc"; then
        echo "decode-smoke: fp32 micro-model CRCs differ between" \
             "DCSR_SIMD=scalar and the default backend" >&2
        diff "$build/decode-smoke-deploy-t1.crc" \
             "$build/decode-smoke-deploy-scalar.crc" >&2
        return 1
      fi
      echo "decode-smoke: deployed micro models bit-identical on the scalar" \
           "oracle and the default backend"
      # Client playback through the CLI: LOW and dcSR over the deployed
      # stream and models, whose printed PSNR/SSIM must not depend on the
      # thread count.
      for t in 1 4; do
        env DCSR_THREADS="$t" "$cli" play "$build/decode-smoke-deploy-t1" \
          news 5 60 >"$build/decode-smoke-play-t$t.txt" || return 1
      done
      if ! cmp -s "$build/decode-smoke-play-t1.txt" \
                  "$build/decode-smoke-play-t4.txt"; then
        echo "decode-smoke: dcsr_cli play output differs between" \
             "DCSR_THREADS=1 and =4" >&2
        diff "$build/decode-smoke-play-t1.txt" \
             "$build/decode-smoke-play-t4.txt" >&2
        return 1
      fi
      echo "decode-smoke: dcsr_cli play output bit-identical across threads {1,4}"
      return 0
      ;;
    tidy)
      # clang-tidy over src/ with the checked-in .clang-tidy. Uses the
      # default build's compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS
      # is always on). Any diagnostic is a failure; a host without clang-tidy
      # SKIPs loudly instead of failing, since the tool is optional tooling,
      # not a build dependency.
      build="${DEFAULT_BUILD_DIR:-$ROOT/build}"
      echo
      echo "=== leg: $leg (build dir: $build) ==="
      if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "tidy leg: SKIP — clang-tidy not installed on this host" \
             "(install LLVM tooling to run it; the leg passes vacuously)"
        return 0
      fi
      cmake -B "$build" -S "$ROOT" -DDCSR_WERROR=ON || return 1
      if [ ! -f "$build/compile_commands.json" ]; then
        echo "tidy leg: $build/compile_commands.json missing" >&2
        return 1
      fi
      local srcs
      srcs=$(find "$ROOT/src" -name '*.cpp' | sort)
      # --warnings-as-errors promotes every enabled check; the leg fails on
      # any finding in any translation unit (kept going to report them all).
      local rc=0 f
      for f in $srcs; do
        clang-tidy -p "$build" --quiet --warnings-as-errors='*' "$f" || rc=1
      done
      return $rc
      ;;
    *)
      echo "run_checks.sh: unknown leg '$leg' (default|checked|asan|tsan|simd|bench-smoke|fuzz-smoke|fleet-smoke|decode-smoke|tidy)" >&2
      return 2
      ;;
  esac

  echo
  echo "=== leg: $leg (build dir: $build) ==="
  cmake -B "$build" -S "$ROOT" -DDCSR_WERROR=ON "${cmake_args[@]}" || return 1
  cmake --build "$build" -j "$(nproc)" || return 1
  "${env_prefix[@]}" ctest --test-dir "$build" --output-on-failure \
    -j "$(nproc)" || return 1
  if [ "$leg" = default ]; then
    print_src_loc
    check_readme_test_count "$build" || return 1
  fi
}

FAILED=0
for leg in "${LEGS[@]}"; do
  if run_leg "$leg"; then
    STATUS[$leg]=PASS
  else
    STATUS[$leg]=FAIL
    FAILED=1
  fi
done

echo
echo "=== run_checks summary ==="
for leg in "${LEGS[@]}"; do
  printf '  %-8s %s\n' "$leg" "${STATUS[$leg]}"
done
if [ "$FAILED" -ne 0 ]; then
  echo "run_checks: FAILED"
  exit 1
fi
echo "run_checks: all legs passed"

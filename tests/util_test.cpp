#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/alloc_check.hpp"
#include "util/checked.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/stats.hpp"
#include "util/file.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace dcsr {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, NormalHasRoughlyUnitMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.03);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// The pool-semantics tests below collect their results through a mutex, an
// atomic or per-index slots, so every region claims nothing (an empty
// WriteSpan) and the pool's scheduling is what they observe.
constexpr auto no_claim = [](std::int64_t, std::int64_t) { return WriteSpan{}; };
constexpr const char* kPoolSite = "tests/util_test.cpp:pool semantics";

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for_writes(
      0, 1000, 1, no_claim,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
      },
      kPoolSite);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, GrainAtLeastRangeRunsAsOneChunk) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  pool.parallel_for_writes(
      3, 10, 7, no_claim,
      [&](std::int64_t lo, std::int64_t hi) {
        std::lock_guard lk(m);
        chunks.emplace_back(lo, hi);
      },
      kPoolSite);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::int64_t, std::int64_t>{3, 10}));
}

TEST(ThreadPool, GrainBoundsChunkSize) {
  ThreadPool pool(8);
  std::mutex m;
  std::vector<std::int64_t> sizes;
  pool.parallel_for_writes(
      0, 10, 4, no_claim,
      [&](std::int64_t lo, std::int64_t hi) {
        std::lock_guard lk(m);
        sizes.push_back(hi - lo);
      },
      kPoolSite);
  // 10 / grain 4 -> at most 2 chunks, each at least 4 wide.
  ASSERT_LE(sizes.size(), 2u);
  for (const auto s : sizes) EXPECT_GE(s, 4);
}

TEST(ThreadPool, EmptyRangeNeverInvokes) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for_writes(
      5, 5, 1, no_claim, [&](std::int64_t, std::int64_t) { ++calls; }, kPoolSite);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ReversedRangeThrows) {
  // end < begin used to flow silently into the chunk math; now it is a
  // caller bug reported with the offending values.
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  try {
    pool.parallel_for_writes(
        7, 3, 1, no_claim, [&](std::int64_t, std::int64_t) { ++calls; },
        kPoolSite);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("begin=7"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("end=3"), std::string::npos);
  }
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, GrainBelowOneThrows) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  const auto fn = [&](std::int64_t, std::int64_t) { ++calls; };
  // Validation runs before any claim is computed.
  EXPECT_THROW(pool.parallel_for_writes(0, 10, 0, no_claim, fn, kPoolSite),
               std::invalid_argument);
  try {
    pool.parallel_for_writes(0, 10, -4, no_claim, fn, kPoolSite);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("-4"), std::string::npos);
  }
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  bool ran = false;
  pool.parallel_for_writes(
      0, 100, 1, no_claim,
      [&](std::int64_t, std::int64_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ran = true;
      },
      kPoolSite);
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_writes(
                   0, 100, 1, no_claim,
                   [&](std::int64_t lo, std::int64_t) {
                     if (lo == 0) throw std::runtime_error("boom");
                   },
                   kPoolSite),
               std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<int> count{0};
  pool.parallel_for_writes(
      0, 10, 1, no_claim,
      [&](std::int64_t lo, std::int64_t hi) { count += static_cast<int>(hi - lo); },
      kPoolSite);
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInlineOnChunkThread) {
  ThreadPool pool(4);
  pool.parallel_for_writes(
      0, 4, 1, no_claim,
      [&](std::int64_t, std::int64_t) {
        const auto outer_thread = std::this_thread::get_id();
        pool.parallel_for_writes(
            0, 8, 1, no_claim,
            [&](std::int64_t, std::int64_t) {
              EXPECT_EQ(std::this_thread::get_id(), outer_thread);
            },
            kPoolSite);
      },
      kPoolSite);
}

TEST(ThreadPool, EnvVariableControlsDefaultSize) {
  ASSERT_EQ(setenv("DCSR_THREADS", "5", 1), 0);
  EXPECT_EQ(thread_count_from_env(), 5);
  ASSERT_EQ(setenv("DCSR_THREADS", "0", 1), 0);
  EXPECT_EQ(thread_count_from_env(), 1);  // clamps to serial
  ASSERT_EQ(setenv("DCSR_THREADS", "garbage", 1), 0);
  EXPECT_GE(thread_count_from_env(), 1);  // falls back to hardware
  ASSERT_EQ(unsetenv("DCSR_THREADS"), 0);
  EXPECT_GE(thread_count_from_env(), 1);
}

TEST(ThreadPool, EnvRejectsPartialAndOverflowValues) {
  // The hardware fallback this process would use with no override at all.
  ASSERT_EQ(unsetenv("DCSR_THREADS"), 0);
  const int fallback = thread_count_from_env();

  // Trailing garbage must be rejected outright, not parsed as its numeric
  // prefix: "4abc" is a typo, and silently running 4 threads would hide it.
  ASSERT_EQ(setenv("DCSR_THREADS", "4abc", 1), 0);
  EXPECT_EQ(thread_count_from_env(), fallback);

  // Values that overflow long/int must be rejected, not wrapped: the old
  // parser cast LONG_MAX to int and ended up at 1 by accident.
  ASSERT_EQ(setenv("DCSR_THREADS", "999999999999", 1), 0);
  EXPECT_EQ(thread_count_from_env(), fallback);
  ASSERT_EQ(setenv("DCSR_THREADS", "99999999999999999999999999", 1), 0);
  EXPECT_EQ(thread_count_from_env(), fallback);
  ASSERT_EQ(setenv("DCSR_THREADS", "2147483648", 1), 0);  // INT_MAX + 1
  EXPECT_EQ(thread_count_from_env(), fallback);

  // Values that fit int but exceed kMaxEnvThreads are rejected too: the
  // first parallel region would spawn that many workers. Only the parser
  // runs here; no pool is ever built from these values.
  ASSERT_EQ(setenv("DCSR_THREADS", "100000", 1), 0);
  EXPECT_EQ(thread_count_from_env(), fallback);
  ASSERT_EQ(setenv("DCSR_THREADS", "2147483647", 1), 0);  // INT_MAX
  EXPECT_EQ(thread_count_from_env(), fallback);
  ASSERT_EQ(setenv("DCSR_THREADS", "257", 1), 0);
  EXPECT_EQ(thread_count_from_env(), fallback);
  ASSERT_EQ(setenv("DCSR_THREADS", "256", 1), 0);
  EXPECT_EQ(thread_count_from_env(), kMaxEnvThreads);

  // A fully-parsed negative value is valid input and clamps to the
  // documented serial floor of 1, exactly like "0".
  ASSERT_EQ(setenv("DCSR_THREADS", "-7", 1), 0);
  EXPECT_EQ(thread_count_from_env(), 1);

  // Empty string is not a number.
  ASSERT_EQ(setenv("DCSR_THREADS", "", 1), 0);
  EXPECT_EQ(thread_count_from_env(), fallback);

  ASSERT_EQ(unsetenv("DCSR_THREADS"), 0);
  EXPECT_EQ(thread_count_from_env(), fallback);
}

TEST(ThreadPool, DefaultPoolOverride) {
  const int saved = default_thread_count();
  set_default_pool_threads(3);
  EXPECT_EQ(default_thread_count(), 3);
  std::vector<int> hits(64, 0);
  parallel_for_writes(
      0, 64, 1, no_claim,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
      },
      kPoolSite);
  for (const int h : hits) EXPECT_EQ(h, 1);
  set_default_pool_threads(saved);
}

TEST(PipelineThread, DestructorCompletesInFlightTaskBeforeEarlierLocalsDie) {
  // Regression for the segment pipeline's unwinding order: everything the
  // lookahead task touches is declared BEFORE the PipelineThread, so when the
  // consumer throws mid-lookahead, ~PipelineThread runs first, finishes the
  // in-flight task and joins while `task` and `result` are still alive. With
  // the declarations inverted the task would race their destruction (the
  // bug this pins against; ASan/TSan would flag it here).
  std::vector<int> result(4096, -1);
  const auto task = [&] {
    for (std::size_t i = 0; i < result.size(); ++i)
      result[i] = static_cast<int>(i % 251);
  };
  try {
    PipelineThread producer;
    producer.run(task);
    throw std::runtime_error("consume failed mid-lookahead");
  } catch (const std::runtime_error&) {
  }
  // The destructor finished the task before honouring stop: every slot is
  // written, none observed mid-destruction.
  for (std::size_t i = 0; i < result.size(); ++i)
    ASSERT_EQ(result[i], static_cast<int>(i % 251));
}

TEST(PipelineThread, DestructorDiscardsInFlightTaskException) {
  // The destructor may already run during unwinding, so a failing in-flight
  // task must not rethrow (or terminate) — its error is discarded.
  const auto task = [] { throw std::runtime_error("produce failed"); };
  {
    PipelineThread producer;
    producer.run(task);
  }
  SUCCEED();
}

// RAII toggle for the write-claim checker so a failing assertion cannot leak
// the forced state into later tests.
class CheckGuard {
 public:
  explicit CheckGuard(bool on) : saved_(parallel_check_enabled()) {
    set_parallel_check_enabled(on);
  }
  ~CheckGuard() { set_parallel_check_enabled(saved_); }

 private:
  bool saved_;
};

TEST(ParallelForWrites, DisjointClaimsRunClean) {
  CheckGuard check(true);
  ThreadPool pool(4);
  std::vector<float> out(1024, 0.0f);
  pool.parallel_for_writes(
      0, 1024, 1,
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(out.data() + lo, static_cast<std::size_t>(hi - lo));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          out[static_cast<std::size_t>(i)] = static_cast<float>(i);
      },
      "util_test:disjoint");
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<float>(i));
}

TEST(ParallelForWrites, OverlappingClaimsAreDetected) {
  CheckGuard check(true);
  ThreadPool pool(4);
  std::vector<float> out(1024, 0.0f);
  // Deliberate contract violation: every chunk claims the WHOLE output. The
  // detector must fire before any chunk runs, naming the site in its
  // diagnostic — this is the negative test for the DCSR_CHECKED build.
  std::atomic<int> calls{0};
  try {
    pool.parallel_for_writes(
        0, 1024, 1,
        [&](std::int64_t, std::int64_t) {
          return span_of(out.data(), out.size());
        },
        [&](std::int64_t, std::int64_t) { ++calls; },
        "util_test:deliberate_overlap");
    FAIL() << "expected ParallelOverlapError";
  } catch (const ParallelOverlapError& e) {
    EXPECT_NE(std::string(e.what()).find("util_test:deliberate_overlap"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("disjoint"), std::string::npos);
  }
  EXPECT_EQ(calls.load(), 0) << "claims must be validated before dispatch";
}

TEST(ParallelForWrites, PartialOverlapBetweenNeighbouringChunksIsDetected) {
  CheckGuard check(true);
  ThreadPool pool(4);
  std::vector<float> out(1024, 0.0f);
  // Off-by-one span arithmetic: each chunk claims one element past its own
  // slice — the classic fencepost race.
  EXPECT_THROW(pool.parallel_for_writes(
                   0, 1024, 1,
                   [&](std::int64_t lo, std::int64_t hi) {
                     const std::size_t n = std::min<std::size_t>(
                         static_cast<std::size_t>(hi - lo) + 1,
                         out.size() - static_cast<std::size_t>(lo));
                     return span_of(out.data() + lo, n);
                   },
                   [](std::int64_t, std::int64_t) {},
                   "util_test:fencepost"),
               ParallelOverlapError);
}

TEST(ParallelForWrites, CheckerOffNeverCallsClaim) {
  CheckGuard check(false);
  ThreadPool pool(4);
  std::vector<float> out(256, 0.0f);
  std::atomic<int> claims{0};
  pool.parallel_for_writes(
      0, 256, 1,
      [&](std::int64_t, std::int64_t) {
        ++claims;
        return span_of(out.data(), out.size());  // would overlap if checked
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          out[static_cast<std::size_t>(i)] = 1.0f;
      },
      "util_test:unchecked");
  EXPECT_EQ(claims.load(), 0);
  for (const float v : out) EXPECT_EQ(v, 1.0f);
}

TEST(ParallelForWrites, NestedRegionsDoNotFalsePositive) {
  CheckGuard check(true);
  ThreadPool pool(4);
  std::vector<float> out(256, 0.0f);
  // The nested region's claims fall entirely inside the enclosing chunk's
  // claim — legal (same thread, no added concurrency) and must not trip the
  // detector.
  pool.parallel_for_writes(
      0, 4, 1,
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(out.data() + lo * 64, static_cast<std::size_t>(hi - lo) * 64);
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t item = lo; item < hi; ++item) {
          float* base = out.data() + item * 64;
          pool.parallel_for_writes(
              0, 64, 1,
              [&](std::int64_t l, std::int64_t h) {
                return span_of(base + l, static_cast<std::size_t>(h - l));
              },
              [&](std::int64_t l, std::int64_t h) {
                for (std::int64_t i = l; i < h; ++i) base[i] += 1.0f;
              },
              "util_test:nested_inner");
        }
      },
      "util_test:nested_outer");
  for (const float v : out) EXPECT_EQ(v, 1.0f);
}

TEST(ParallelForWrites, ConcurrentRegionsFromDifferentThreadsCrossCheck) {
  CheckGuard check(true);
  std::vector<float> out(128, 0.0f);
  ThreadPool holder_pool(1), intruder_pool(1);
  std::atomic<bool> registered{false}, release{false};

  // A region's claims stay registered for its whole lifetime, so a second
  // region claiming the same bytes from another thread must be rejected
  // while the first is still in flight — deterministically, because the
  // holder blocks inside its chunk until released. Claims are per-chunk
  // slices: within each region they are disjoint (legal at any
  // decomposition, including the containment auditor's canonical one);
  // across the two regions they cover the same array, which is the overlap
  // under test.
  std::thread holder([&] {
    holder_pool.parallel_for_writes(
        0, 128, 1,
        [&](std::int64_t lo, std::int64_t hi) {
          return span_of(out.data() + lo, static_cast<std::size_t>(hi - lo));
        },
        [&](std::int64_t, std::int64_t) {
          registered.store(true);
          while (!release.load()) std::this_thread::yield();
        },
        "util_test:holder");
  });
  while (!registered.load()) std::this_thread::yield();

  EXPECT_THROW(intruder_pool.parallel_for_writes(
                   0, 128, 1,
                   [&](std::int64_t lo, std::int64_t hi) {
                     return span_of(out.data() + lo,
                                    static_cast<std::size_t>(hi - lo));
                   },
                   [](std::int64_t, std::int64_t) {},
                   "util_test:intruder"),
               ParallelOverlapError);

  release.store(true);
  holder.join();

  // With the holder gone its claims are withdrawn; the same region is legal.
  intruder_pool.parallel_for_writes(
      0, 128, 1,
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(out.data() + lo, static_cast<std::size_t>(hi - lo));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          out[static_cast<std::size_t>(i)] = 2.0f;
      },
      "util_test:after_release");
  for (const float v : out) EXPECT_EQ(v, 2.0f);
}

TEST(ParallelForWrites, EmptyRangeNeverClaims) {
  CheckGuard check(true);
  ThreadPool pool(2);
  std::atomic<int> claims{0}, calls{0};
  pool.parallel_for_writes(
      5, 5, 1,
      [&](std::int64_t, std::int64_t) {
        ++claims;
        return WriteSpan{};
      },
      [&](std::int64_t, std::int64_t) { ++calls; }, "util_test:empty");
  EXPECT_EQ(claims.load(), 0);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForWrites, InvertedClaimIsRejected) {
  CheckGuard check(true);
  ThreadPool pool(4);
  std::vector<float> out(64, 0.0f);
  // A claim whose lo sits above its hi is always a bug at the call site
  // (swapped span_of arguments, negated count); it must be rejected up
  // front, naming the site, before any chunk runs.
  std::atomic<int> calls{0};
  try {
    pool.parallel_for_writes(
        0, 64, 1,
        [&](std::int64_t lo, std::int64_t hi) {
          return WriteSpan{out.data() + hi, out.data() + lo};  // inverted
        },
        [&](std::int64_t, std::int64_t) { ++calls; },
        "util_test:inverted_claim");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("inverted claim"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("util_test:inverted_claim"),
              std::string::npos);
  }
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForWrites, EmptyClaimChunksAreSkippedNotRegistered) {
  CheckGuard check(true);
  ThreadPool pool(4);
  std::vector<float> out(256, 0.0f);
  // Chunks covering the upper half declare "nothing to track" (empty claim)
  // and write nothing; the lower-half chunks claim and fill their slices.
  // The empty claims must simply be skipped — no registration, no overlap
  // bookkeeping, no false positives against the real claims.
  pool.parallel_for_writes(
      0, 256, 1,
      [&](std::int64_t lo, std::int64_t hi) {
        if (lo >= 128) return WriteSpan{};
        return span_of(out.data() + lo, static_cast<std::size_t>(hi - lo));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi && i < 128; ++i)
          out[static_cast<std::size_t>(i)] = 3.0f;
      },
      "util_test:empty_claim_skip");
  for (std::size_t i = 0; i < 128; ++i) EXPECT_EQ(out[i], 3.0f);
  for (std::size_t i = 128; i < 256; ++i) EXPECT_EQ(out[i], 0.0f);
}

#if DCSR_CLAIM_CONTAIN

// RAII toggle for the containment auditor, mirroring CheckGuard: restores
// the prior state even when an assertion throws mid-test.
class ContainGuard {
 public:
  explicit ContainGuard(bool on) : saved_(claim_contain_enabled()) {
    set_claim_contain_enabled(on);
  }
  ~ContainGuard() { set_claim_contain_enabled(saved_); }

 private:
  bool saved_;
};

TEST(ClaimContainment, ExactClaimsPassWithAuditorLive) {
  CheckGuard check(true);
  ContainGuard contain(true);
  ThreadPool pool(4);
  std::vector<float> out(1024, 0.0f);
  pool.parallel_for_writes(
      0, 1024, 1,
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(out.data() + lo, static_cast<std::size_t>(hi - lo));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          out[static_cast<std::size_t>(i)] = static_cast<float>(i);
      },
      "util_test:contained");
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<float>(i));
}

TEST(ClaimContainment, UnderClaimingChunkThrowsDeterministically) {
  CheckGuard check(true);
  ContainGuard contain(true);
  // The acceptance negative test: a kernel that claims its own slice but
  // also scribbles one element into a sibling's — the write-escape the
  // overlap checker cannot see. The audit replays the canonical 4-way
  // decomposition regardless of pool size, so the report is identical at
  // DCSR_THREADS=1 and =4: 256 floats split into 4 chunks of 64; chunk 0
  // writes out[200], which starts at byte (200 - 192) * 4 = 32 of chunk 3's
  // claim. The written value (bits 0x3F800001) differs from zero in its
  // lowest byte, so the first-differing-byte report lands exactly there.
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::vector<float> out(256, 0.0f);
    try {
      pool.parallel_for_writes(
          0, 256, 1,
          [&](std::int64_t lo, std::int64_t hi) {
            return span_of(out.data() + lo, static_cast<std::size_t>(hi - lo));
          },
          [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t i = lo; i < hi; ++i)
              out[static_cast<std::size_t>(i)] = 1.0f;
            if (lo == 0)
              out[200] = std::nextafterf(1.0f, 2.0f);  // escapes chunk 0
          },
          "util_test:under_claim");
      FAIL() << "expected ClaimContainmentError at " << threads << " threads";
    } catch (const ClaimContainmentError& e) {
      EXPECT_STREQ(e.site(), "util_test:under_claim");
      EXPECT_EQ(e.chunk(), 0) << "threads=" << threads;
      EXPECT_EQ(e.victim_chunk(), 3) << "threads=" << threads;
      EXPECT_EQ(e.byte_offset(), 32u) << "threads=" << threads;
      const std::string msg = e.what();
      EXPECT_NE(msg.find("util_test:under_claim"), std::string::npos);
      EXPECT_NE(msg.find("chunk 0"), std::string::npos);
      EXPECT_NE(msg.find("byte 32"), std::string::npos);
      EXPECT_NE(msg.find("chunk 3"), std::string::npos);
    }
  }
}

TEST(ClaimContainment, EmptyClaimChunkWritingSiblingBytesIsCaught) {
  CheckGuard check(true);
  ContainGuard contain(true);
  ThreadPool pool(4);
  std::vector<float> out(256, 0.0f);
  // An empty claim means "this chunk writes nothing the checker should
  // track" — so ANY write it lands inside a sibling's claim is a violation.
  // Chunk 0 claims and fills its slice; every other chunk claims empty, and
  // the first of them (chunk 1) scribbles into chunk 0's span.
  try {
    pool.parallel_for_writes(
        0, 256, 1,
        [&](std::int64_t lo, std::int64_t hi) {
          if (lo != 0) return WriteSpan{};
          return span_of(out.data() + lo, static_cast<std::size_t>(hi - lo));
        },
        [&](std::int64_t lo, std::int64_t) {
          if (lo == 0) {
            for (std::int64_t i = 0; i < 64; ++i)
              out[static_cast<std::size_t>(i)] = 1.0f;
          } else {
            // Empty claim, but writes chunk 0's bytes; the value's lowest
            // byte differs from 1.0f's, pinning the reported offset.
            out[5] = std::nextafterf(1.0f, 2.0f);
          }
        },
        "util_test:empty_claim_writer");
    FAIL() << "expected ClaimContainmentError";
  } catch (const ClaimContainmentError& e) {
    EXPECT_EQ(e.chunk(), 1) << "chunk 1 runs first among the writers";
    EXPECT_EQ(e.victim_chunk(), 0);
    EXPECT_EQ(e.byte_offset(), 5u * sizeof(float));
  }
}

TEST(ClaimContainment, DisabledAuditorRestoresPlainCheckedPath) {
  CheckGuard check(true);
  ContainGuard contain(false);
  // With the auditor off the under-claiming kernel from the negative test
  // runs to completion at a single-chunk decomposition — documenting that
  // containment, not the overlap checker, is what catches write escapes.
  ThreadPool pool(1);
  std::vector<float> out(256, 0.0f);
  pool.parallel_for_writes(
      0, 256, 1,
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(out.data() + lo, static_cast<std::size_t>(hi - lo));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          out[static_cast<std::size_t>(i)] = 1.0f;
      },
      "util_test:contain_off");
  for (const float v : out) EXPECT_EQ(v, 1.0f);
}

#endif  // DCSR_CLAIM_CONTAIN

TEST(Serialize, RoundTripsScalars) {
  ByteWriter w;
  w.write_u8(0xab);
  w.write_u16(0x1234);
  w.write_u32(0xdeadbeef);
  w.write_u64(0x0123456789abcdefULL);
  w.write_i32(-42);
  w.write_f32(3.25f);
  w.write_f64(-1.5e-20);
  w.write_string("dcSR");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 0xab);
  EXPECT_EQ(r.read_u16(), 0x1234);
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.read_i32(), -42);
  EXPECT_EQ(r.read_f32(), 3.25f);
  EXPECT_EQ(r.read_f64(), -1.5e-20);
  EXPECT_EQ(r.read_string(), "dcSR");
  EXPECT_TRUE(r.done());
}

TEST(Serialize, TruncatedInputThrows) {
  ByteWriter w;
  w.write_u16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u8(), 0);
  EXPECT_THROW(r.read_u8(), std::out_of_range);
}

TEST(Serialize, FloatSpanRoundTrip) {
  const float xs[4] = {1.0f, -2.5f, 0.0f, 1e-8f};
  ByteWriter w;
  w.write_f32_span(xs, 4);
  ByteReader r(w.bytes());
  float ys[4];
  r.read_f32_span(ys, 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(xs[i], ys[i]);
}

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.0);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(2.0));
}

TEST(Stats, EmptyMeanIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, Percentiles) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, EmpiricalCdfMonotone) {
  const std::vector<double> samples{1, 2, 2, 3, 10};
  const std::vector<double> probes{0, 1, 2, 5, 10};
  const auto cdf = empirical_cdf(samples, probes);
  ASSERT_EQ(cdf.size(), probes.size());
  EXPECT_DOUBLE_EQ(cdf[0], 0.0);
  EXPECT_DOUBLE_EQ(cdf[1], 0.2);
  EXPECT_DOUBLE_EQ(cdf[2], 0.6);
  EXPECT_DOUBLE_EQ(cdf[3], 0.8);
  EXPECT_DOUBLE_EQ(cdf[4], 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
}

TEST(Stats, ArgmaxTakesFirstOnTies) {
  const std::vector<double> xs{3, 9, 1, 9};
  EXPECT_EQ(argmax(xs), 1u);
}

TEST(Stats, ExtremaThrowOnEmptySpan) {
  // Regression: these used to dereference end() of an empty span (UB that
  // happened to return garbage); now they refuse.
  const std::vector<double> empty;
  EXPECT_THROW(min_of(empty), std::invalid_argument);
  EXPECT_THROW(max_of(empty), std::invalid_argument);
  EXPECT_THROW(argmax(empty), std::invalid_argument);

  // One element is the smallest valid input.
  const std::vector<double> one{4.5};
  EXPECT_EQ(min_of(one), 4.5);
  EXPECT_EQ(max_of(one), 4.5);
  EXPECT_EQ(argmax(one), 0u);
}

TEST(Table, RendersAlignedRowsAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "name,value\nalpha,1\nb,22\n");
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.to_csv(), "a,b,c\nx,,\n");
}

TEST(Fmt, FormatsDecimals) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(File, RoundTripsBytes) {
  const std::string path = ::testing::TempDir() + "dcsr_util_file_test.bin";
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 31);
  write_file(path, data);
  EXPECT_EQ(read_file(path), data);
  // Overwrite with shorter content truncates.
  write_file(path, {1, 2, 3});
  EXPECT_EQ(read_file(path).size(), 3u);
  std::remove(path.c_str());
}

TEST(File, EmptyFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "dcsr_util_file_empty.bin";
  write_file(path, {});
  EXPECT_TRUE(read_file(path).empty());
  std::remove(path.c_str());
}

TEST(File, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/definitely/missing.bin"),
               std::runtime_error);
  EXPECT_THROW(write_file("/nonexistent/definitely/missing.bin", {1}),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Hardened environment parsing (util/env.hpp). Each test uses its own
// variable name so parallel ctest shards never race on shared state.

TEST(Env, RawReturnsValueOrNull) {
  ::setenv("DCSR_TEST_ENV_RAW", "hello", 1);
  ASSERT_NE(env_raw("DCSR_TEST_ENV_RAW"), nullptr);
  EXPECT_STREQ(env_raw("DCSR_TEST_ENV_RAW"), "hello");
  ::unsetenv("DCSR_TEST_ENV_RAW");
  EXPECT_EQ(env_raw("DCSR_TEST_ENV_RAW"), nullptr);
}

TEST(Env, IntAcceptsCompleteIntegersOnly) {
  const char* k = "DCSR_TEST_ENV_INT";
  ::setenv(k, "42", 1);
  EXPECT_EQ(env_int(k), 42);
  ::setenv(k, "-7", 1);
  EXPECT_EQ(env_int(k), -7);
  // Rejected completely, never partially accepted.
  for (const char* bad : {"4abc", "", " 4", "4 ", "0x10", "3.5",
                          "999999999999999999999999", "abc"}) {
    ::setenv(k, bad, 1);
    EXPECT_FALSE(env_int(k).has_value()) << "value: '" << bad << "'";
  }
  ::unsetenv(k);
  EXPECT_FALSE(env_int(k).has_value());
}

TEST(Env, BoolParsesExactTokensOnly) {
  const char* k = "DCSR_TEST_ENV_BOOL";
  for (const char* t : {"1", "on", "true"}) {
    ::setenv(k, t, 1);
    EXPECT_EQ(env_bool(k), true) << "value: '" << t << "'";
  }
  for (const char* f : {"0", "off", "false"}) {
    ::setenv(k, f, 1);
    EXPECT_EQ(env_bool(k), false) << "value: '" << f << "'";
  }
  for (const char* bad : {"ON", "True", "yes", "2", "", "on "}) {
    ::setenv(k, bad, 1);
    EXPECT_FALSE(env_bool(k).has_value()) << "value: '" << bad << "'";
  }
  ::unsetenv(k);
  EXPECT_FALSE(env_bool(k).has_value());
}

#if DCSR_ALLOC_CHECK

// ---------------------------------------------------------------------------
// Hot-path heap auditor. These only compile when the interposer is linked
// (checked builds); the tests that expect a throw keep gtest assertions
// *outside* guarded scopes, because a failing EXPECT streams into heap-
// allocated messages. The volatile sink stops the compiler from eliding
// new/delete pairs (which C++ permits even for replaced operators).

void* volatile g_alloc_sink = nullptr;

TEST(CheckedAlloc, AllocationInsideGuardThrowsNamingSite) {
  set_alloc_check_enabled(true);
  bool threw = false;
  const char* site = nullptr;
  std::size_t bytes = 0;
  int depth = -1;
  bool what_names_site = false;
  {
    HotPathGuard guard("tests/util_test.cpp:deliberate-violation");
    try {
      int* p = new int[8];  // deliberate hot-path allocation
      g_alloc_sink = p;
      delete[] p;
    } catch (const HotPathAllocError& e) {
      threw = true;
      site = e.site();  // string literal: outlives the exception
      bytes = e.bytes();
      depth = e.depth();
      what_names_site =
          std::strstr(e.what(), "tests/util_test.cpp:deliberate-violation") !=
          nullptr;
    }
  }
  ASSERT_TRUE(threw);
  EXPECT_STREQ(site, "tests/util_test.cpp:deliberate-violation");
  EXPECT_EQ(bytes, 8 * sizeof(int));
  EXPECT_EQ(depth, 1);
  EXPECT_TRUE(what_names_site);
}

TEST(CheckedAlloc, ViolationNamesInnermostOfNestedGuards) {
  set_alloc_check_enabled(true);
  bool threw = false;
  const char* site = nullptr;
  int depth = -1;
  {
    HotPathGuard outer("outer-site");
    {
      HotPathGuard inner("inner-site");
      try {
        g_alloc_sink = new int;
      } catch (const HotPathAllocError& e) {
        threw = true;
        site = e.site();
        depth = e.depth();
      }
    }
  }
  ASSERT_TRUE(threw);
  EXPECT_STREQ(site, "inner-site");
  EXPECT_EQ(depth, 2);
}

TEST(CheckedAlloc, DepthAndSiteTrackNestingExceptionSafely) {
  // Enforcement off: this test exercises the guard *stack*, and gtest's own
  // assertion machinery must stay free to allocate inside the scopes.
  set_alloc_check_enabled(false);
  EXPECT_EQ(hot_path_depth(), 0);
  EXPECT_EQ(active_hot_path(), nullptr);
  {
    HotPathGuard a("site-a");
    EXPECT_EQ(hot_path_depth(), 1);
    EXPECT_STREQ(active_hot_path(), "site-a");
    {
      HotPathGuard b("site-b");
      EXPECT_EQ(hot_path_depth(), 2);
      EXPECT_STREQ(active_hot_path(), "site-b");
    }
    EXPECT_EQ(hot_path_depth(), 1);
    EXPECT_STREQ(active_hot_path(), "site-a");
  }
  EXPECT_EQ(hot_path_depth(), 0);
  // Guards pop during stack unwinding too.
  try {
    HotPathGuard g("site-unwind");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(hot_path_depth(), 0);
  EXPECT_EQ(active_hot_path(), nullptr);
  set_alloc_check_enabled(true);
}

TEST(CheckedAlloc, AllowScopeSanctionsAndStillCountsRaw) {
  set_alloc_check_enabled(true);
  const AllocStats before = thread_alloc_stats();
  {
    HotPathGuard guard("sanctioned-site");
    AllocAllowScope allow;
    int* p = new int[16];
    g_alloc_sink = p;
    delete[] p;
  }
  const AllocStats after = thread_alloc_stats();
  EXPECT_EQ(after.allocs - before.allocs, 1u);
  EXPECT_EQ(after.frees - before.frees, 1u);
  EXPECT_EQ(after.sanctioned - before.sanctioned, 1u);
  EXPECT_GE(after.bytes - before.bytes, 16 * sizeof(int));
}

TEST(CheckedAlloc, UnguardedAllocationCountsButIsNotSanctioned) {
  set_alloc_check_enabled(true);
  const AllocStats before = thread_alloc_stats();
  int* p = new int[4];
  g_alloc_sink = p;
  delete[] p;
  const AllocStats after = thread_alloc_stats();
  EXPECT_EQ(after.allocs - before.allocs, 1u);
  EXPECT_EQ(after.frees - before.frees, 1u);
  EXPECT_EQ(after.sanctioned - before.sanctioned, 0u);
}

TEST(CheckedAlloc, CountersSurviveFailedAcquires) {
  // enforce() runs before malloc: a violation never allocates, so the
  // counters after the failed acquire are exactly the counters before it.
  set_alloc_check_enabled(true);
  AllocStats before{}, after{};
  bool threw = false;
  {
    HotPathGuard guard("failed-acquire");
    before = thread_alloc_stats();
    try {
      g_alloc_sink = new int[32];
    } catch (const HotPathAllocError&) {
      threw = true;
    }
    after = thread_alloc_stats();
  }
  ASSERT_TRUE(threw);
  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.frees, before.frees);
  // The thread remains fully usable afterwards: allocation outside the
  // guard succeeds and counts.
  std::vector<int> v(64, 1);
  EXPECT_EQ(v.size(), 64u);
  EXPECT_GT(thread_alloc_stats().allocs, after.allocs);
}

TEST(CheckedAlloc, EnforcementCanBeToggledAtRuntime) {
  set_alloc_check_enabled(false);
  {
    HotPathGuard guard("enforcement-off");
    int* p = new int[4];  // would throw if enforcement were live
    g_alloc_sink = p;
    delete[] p;
  }
  set_alloc_check_enabled(true);
  bool threw = false;
  {
    HotPathGuard guard("enforcement-on");
    try {
      g_alloc_sink = new int[4];
    } catch (const HotPathAllocError&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_TRUE(alloc_check_enabled());
}

TEST(CheckedAlloc, ErrorPathPatternAllowsRealDiagnosticsThroughGuards) {
  // The repo-wide error-path idiom: `{ AllocAllowScope allow; throw X; }`.
  // The real exception (which allocates its message) must escape the guard
  // untranslated rather than being masked by HotPathAllocError.
  set_alloc_check_enabled(true);
  bool caught_real_error = false;
  {
    HotPathGuard guard("error-path");
    try {
      AllocAllowScope allow;
      throw std::runtime_error("a diagnostic with a heap-allocated message "
                               "long enough to defeat SSO everywhere");
    } catch (const std::runtime_error&) {
      caught_real_error = true;
    }
  }
  EXPECT_TRUE(caught_real_error);
  EXPECT_EQ(hot_path_depth(), 0);
}

#endif  // DCSR_ALLOC_CHECK

}  // namespace
}  // namespace dcsr

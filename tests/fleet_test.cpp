#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "stream/fleet.hpp"
#include "stream/workload.hpp"
#include "util/alloc_check.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::stream {
namespace {

// Small-but-nontrivial fleet the tests can run in milliseconds.
FleetConfig small_fleet() {
  FleetConfig cfg;
  cfg.workload.sessions = 3000;
  cfg.workload.videos = 120;
  cfg.workload.global_clusters = 96;
  cfg.workload.horizon_seconds = 7200.0;
  cfg.edge_budget_bytes = 4ull << 20;
  cfg.seed = 11;
  return cfg;
}

void expect_summaries_identical(const FleetSummary& a, const FleetSummary& b) {
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.aborted_dead_network, b.aborted_dead_network);
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_EQ(a.video_bytes, b.video_bytes);
  EXPECT_EQ(a.model_bytes_last_mile, b.model_bytes_last_mile);
  EXPECT_EQ(a.model_bytes_origin, b.model_bytes_origin);
  EXPECT_EQ(a.client_hits, b.client_hits);
  EXPECT_EQ(a.client_misses, b.client_misses);
  EXPECT_EQ(a.edge_hits, b.edge_hits);
  EXPECT_EQ(a.edge_misses, b.edge_misses);
  EXPECT_EQ(a.edge_evictions, b.edge_evictions);
  EXPECT_EQ(a.edge_bypasses, b.edge_bypasses);
  EXPECT_EQ(a.edge_resident_bytes, b.edge_resident_bytes);
  // Bit-identical, not approximately equal: the determinism contract.
  EXPECT_EQ(a.fetch_latency_p50_s, b.fetch_latency_p50_s);
  EXPECT_EQ(a.fetch_latency_p99_s, b.fetch_latency_p99_s);
  EXPECT_EQ(a.startup_p50_s, b.startup_p50_s);
  EXPECT_EQ(a.startup_p99_s, b.startup_p99_s);
  EXPECT_EQ(a.rebuffer_p50_s, b.rebuffer_p50_s);
  EXPECT_EQ(a.rebuffer_p99_s, b.rebuffer_p99_s);
  EXPECT_EQ(a.mean_quality_db, b.mean_quality_db);
  EXPECT_EQ(a.mean_rung, b.mean_rung);
  // The per-event heap accounting is part of the determinism contract too:
  // the fleet-smoke leg diffs it byte-for-byte across DCSR_THREADS.
  EXPECT_EQ(a.advance_heap_allocs, b.advance_heap_allocs);
  EXPECT_EQ(a.advance_heap_allocs_sanctioned, b.advance_heap_allocs_sanctioned);
  // SR serving stats, same contract.
  EXPECT_EQ(a.sr_frames, b.sr_frames);
  EXPECT_EQ(a.sr_batches, b.sr_batches);
  EXPECT_EQ(a.sr_latency_p50_s, b.sr_latency_p50_s);
  EXPECT_EQ(a.sr_latency_p99_s, b.sr_latency_p99_s);
  EXPECT_EQ(a.sr_server_seconds, b.sr_server_seconds);
}

// ---------------------------------------------------------------------------
// LruByteCache

TEST(LruByteCache, EvictsInLeastRecentlyUsedOrder) {
  LruByteCache cache(300);
  EXPECT_FALSE(cache.fetch(1, 100));
  EXPECT_FALSE(cache.fetch(2, 100));
  EXPECT_FALSE(cache.fetch(3, 100));
  EXPECT_EQ(cache.keys_lru_to_mru(), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(cache.resident_bytes(), 300u);

  // A hit refreshes recency: 1 moves to MRU, 2 becomes the victim.
  EXPECT_TRUE(cache.fetch(1, 100));
  EXPECT_EQ(cache.keys_lru_to_mru(), (std::vector<int>{2, 3, 1}));
  EXPECT_FALSE(cache.fetch(4, 100));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_EQ(cache.keys_lru_to_mru(), (std::vector<int>{3, 1, 4}));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 300u);
}

TEST(LruByteCache, EvictsAsManyEntriesAsTheNewcomerNeeds) {
  LruByteCache cache(300);
  cache.fetch(1, 100);
  cache.fetch(2, 100);
  cache.fetch(3, 100);
  EXPECT_FALSE(cache.fetch(4, 180));  // needs two victims, not just one
  EXPECT_EQ(cache.keys_lru_to_mru(), (std::vector<int>{3, 4}));
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.resident_bytes(), 280u);  // 3 (100) + 4 (180)
}

TEST(LruByteCache, OversizedObjectsBypassInsteadOfFlushing) {
  LruByteCache cache(200);
  cache.fetch(1, 100);
  cache.fetch(2, 100);
  EXPECT_FALSE(cache.fetch(9, 500));  // larger than the whole budget
  EXPECT_EQ(cache.bypasses(), 1u);
  EXPECT_FALSE(cache.contains(9));
  EXPECT_TRUE(cache.contains(1));  // resident set untouched
  EXPECT_TRUE(cache.contains(2));
  EXPECT_EQ(cache.resident_bytes(), 200u);
}

TEST(LruByteCache, CountsHitsAndMisses) {
  LruByteCache cache(1000);
  cache.fetch(5, 10);
  cache.fetch(5, 10);
  cache.fetch(6, 10);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruByteCache, ZeroBudgetBypassesEverythingAndNeverEvicts) {
  // Degenerate but legal configuration: a zero-byte edge tier. Every object
  // is larger than the whole budget, so every fetch is a miss-and-bypass —
  // nothing is ever admitted, so nothing can be evicted, and the eviction
  // loop must not run (its `resident_ + bytes > budget_` guard with an empty
  // order_ list would otherwise spin or underflow).
  LruByteCache cache(0);
  for (int round = 0; round < 2; ++round)
    for (int key = 0; key < 4; ++key) EXPECT_FALSE(cache.fetch(key, 1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 8u);
  EXPECT_EQ(cache.bypasses(), 8u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.keys_lru_to_mru().empty());
  EXPECT_FALSE(cache.contains(0));

  // A zero-byte object against a zero-byte budget is the one fit that does
  // work: 0 + 0 > 0 is false, so it admits without evicting.
  EXPECT_FALSE(cache.fetch(9, 0));
  EXPECT_TRUE(cache.contains(9));
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.fetch(9, 0));
}

// ---------------------------------------------------------------------------
// DurationHistogram

TEST(DurationHistogram, PercentilesLandInTheRightBin) {
  DurationHistogram h(0.01, 100);  // 10 ms bins up to 1 s
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) * 0.01);
  EXPECT_NEAR(h.percentile(50.0), 0.5, 0.02);
  EXPECT_NEAR(h.percentile(99.0), 0.99, 0.02);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(DurationHistogram(0.01, 10).percentile(50.0), 0.0);
}

TEST(DurationHistogram, OverflowReportsTheExactMaximum) {
  DurationHistogram h(0.01, 10);  // binned range ends at 0.1 s
  h.add(0.05);
  h.add(42.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 42.0);
}

TEST(DurationHistogram, NonFiniteAndHugeSamplesOverflow) {
  // NaN, +inf and a quotient far past SIZE_MAX bins must land in the
  // overflow bucket, never in a bin; a NaN sample counts as +inf.
  DurationHistogram h(0.5, 4);  // binned range ends at 2 s
  h.add(1.2);
  h.add(1e300);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 1.25);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 1e300);
  h.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.percentile(100.0), std::numeric_limits<double>::infinity());

  DurationHistogram n(0.5, 4);
  n.add(std::numeric_limits<double>::quiet_NaN());
  n.add(0.1);
  EXPECT_EQ(n.count(), 2u);
  EXPECT_DOUBLE_EQ(n.percentile(50.0), 0.25);
  EXPECT_EQ(n.percentile(100.0), std::numeric_limits<double>::infinity());
  n.add(-std::numeric_limits<double>::infinity());  // negative: counts as 0
  EXPECT_EQ(n.count(), 3u);
  EXPECT_DOUBLE_EQ(n.percentile(0.0), 0.25);
}

TEST(DurationHistogram, EmptyHistogramReportsZeroEverywhere) {
  const DurationHistogram h(0.01, 10);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.0);
}

TEST(DurationHistogram, SingleSampleIsEveryPercentile) {
  DurationHistogram h(0.5, 10);  // dyadic bin width: exact float arithmetic
  h.add(1.2);                    // lands in bin 2 -> midpoint 1.25
  EXPECT_EQ(h.count(), 1u);
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 1.25) << "p=" << p;
  }
}

TEST(DurationHistogram, AllSamplesInSaturatingBucketReportMaxSeen) {
  DurationHistogram h(0.01, 10);  // binned range ends at 0.1 s
  h.add(5.0);
  h.add(17.5);
  h.add(3.25);
  EXPECT_EQ(h.count(), 3u);
  // Every sample overflowed the binned range: no bin can satisfy any
  // percentile, so all of them fall through to the exact maximum.
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 17.5) << "p=" << p;
  }
  // Out-of-range p clamps rather than reading past the bins.
  EXPECT_DOUBLE_EQ(h.percentile(-5.0), 17.5);
  EXPECT_DOUBLE_EQ(h.percentile(250.0), 17.5);
}

// ---------------------------------------------------------------------------
// Workload generator

TEST(Zipf, SkewConcentratesMassOnLowRanks) {
  const ZipfSampler uniform(100, 0.0);
  const ZipfSampler skewed(100, 1.2);
  // CDF at rank 9 (top 10%): uniform = 0.1, skewed much larger.
  EXPECT_NEAR(uniform.cdf(9), 0.1, 1e-9);
  EXPECT_GT(skewed.cdf(9), 0.5);
  // CDFs are monotone and end at exactly 1.
  for (int k = 1; k < 100; ++k) EXPECT_GE(skewed.cdf(k), skewed.cdf(k - 1));
  EXPECT_DOUBLE_EQ(skewed.cdf(99), 1.0);

  Rng rng(3);
  int low = 0;
  for (int i = 0; i < 2000; ++i)
    if (skewed.sample(rng) < 10) ++low;
  EXPECT_GT(low, 1000);  // > half the draws hit the top 10% of ranks
}

TEST(Zipf, RejectsBadParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.5), std::invalid_argument);
}

TEST(Workload, DeterministicFromSeed) {
  WorkloadConfig cfg;
  cfg.sessions = 500;
  cfg.videos = 40;
  const Workload a = generate_workload(cfg, 7);
  const Workload b = generate_workload(cfg, 7);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].arrival_seconds, b.sessions[i].arrival_seconds);
    EXPECT_EQ(a.sessions[i].video, b.sessions[i].video);
    EXPECT_EQ(a.sessions[i].device_class, b.sessions[i].device_class);
    EXPECT_EQ(a.sessions[i].watch_segments, b.sessions[i].watch_segments);
    EXPECT_EQ(a.sessions[i].rng_seed, b.sessions[i].rng_seed);
  }
  const Workload c = generate_workload(cfg, 8);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.sessions.size(); ++i)
    any_difference = any_difference ||
                     a.sessions[i].rng_seed != c.sessions[i].rng_seed;
  EXPECT_TRUE(any_difference);
}

TEST(Workload, ArrivalsSortedWithinHorizon) {
  WorkloadConfig cfg;
  cfg.sessions = 2000;
  cfg.videos = 50;
  cfg.horizon_seconds = 3600.0;
  const Workload w = generate_workload(cfg, 1);
  ASSERT_EQ(w.sessions.size(), 2000u);
  for (std::size_t i = 0; i < w.sessions.size(); ++i) {
    EXPECT_GE(w.sessions[i].arrival_seconds, 0.0);
    EXPECT_LE(w.sessions[i].arrival_seconds, 3600.0);
    if (i > 0) {
      EXPECT_GE(w.sessions[i].arrival_seconds,
                w.sessions[i - 1].arrival_seconds);
    }
  }
}

TEST(Workload, DiurnalPeakDrawsMoreArrivalsThanTrough) {
  WorkloadConfig cfg;
  cfg.sessions = 20000;
  cfg.videos = 20;
  cfg.horizon_seconds = 86400.0;
  cfg.diurnal.amplitude = 0.8;
  cfg.diurnal.peak_hour = 20.0;
  const Workload w = generate_workload(cfg, 5);
  int peak = 0, trough = 0;
  for (const auto& s : w.sessions) {
    const double hour = s.arrival_seconds / 3600.0;
    if (hour >= 18.0 && hour < 22.0) ++peak;    // around 8 pm
    if (hour >= 6.0 && hour < 10.0) ++trough;   // around 8 am
  }
  EXPECT_GT(peak, 2 * trough);
}

TEST(Workload, CatalogSharesClustersAcrossVideos) {
  WorkloadConfig cfg;
  cfg.sessions = 1;
  cfg.videos = 60;
  cfg.global_clusters = 32;
  cfg.cluster_zipf_skew = 1.2;
  const Workload w = generate_workload(cfg, 2);
  // Count videos touching the globally most popular cluster id: with a
  // skewed shared pool, many videos must reference it — that is what makes
  // an edge cache pay off across videos.
  std::vector<int> touched(32, 0);
  for (const auto& v : w.catalog) {
    std::vector<bool> seen(32, false);
    for (const int c : v.segment_cluster) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, 32);
      seen[static_cast<std::size_t>(c)] = true;
    }
    for (int c = 0; c < 32; ++c)
      if (seen[static_cast<std::size_t>(c)]) ++touched[static_cast<std::size_t>(c)];
  }
  int max_touched = 0;
  for (const int n : touched) max_touched = std::max(max_touched, n);
  EXPECT_GT(max_touched, 30);  // the hottest cluster spans half the catalog
}

TEST(Workload, WatchTimesRespectVideoLength) {
  WorkloadConfig cfg;
  cfg.sessions = 3000;
  cfg.videos = 30;
  const Workload w = generate_workload(cfg, 9);
  for (const auto& s : w.sessions) {
    const auto len = static_cast<int>(
        w.catalog[static_cast<std::size_t>(s.video)].segment_cluster.size());
    EXPECT_GE(s.watch_segments, 1);
    EXPECT_LE(s.watch_segments, len);
  }
}

TEST(Workload, RejectsNonsenseConfigs) {
  WorkloadConfig cfg;
  cfg.sessions = 0;
  EXPECT_THROW(generate_workload(cfg, 1), std::invalid_argument);
  cfg = {};
  cfg.videos = 0;
  EXPECT_THROW(generate_workload(cfg, 1), std::invalid_argument);
  cfg = {};
  cfg.segments_min = 10;
  cfg.segments_max = 5;
  EXPECT_THROW(generate_workload(cfg, 1), std::invalid_argument);
  cfg = {};
  cfg.horizon_seconds = -1.0;
  EXPECT_THROW(generate_workload(cfg, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fleet simulator

TEST(Fleet, RepeatedRunsAreBitIdentical) {
  const FleetConfig cfg = small_fleet();
  const FleetSummary a = run_fleet(cfg);
  const FleetSummary b = run_fleet(cfg);
  expect_summaries_identical(a, b);
  EXPECT_EQ(a.sessions, 3000u);
  EXPECT_GT(a.segments, a.sessions);  // everyone watches > 1 segment on average
}

TEST(Fleet, SweepBitIdenticalAcrossThreadCounts) {
  std::vector<FleetConfig> configs;
  for (int i = 0; i < 3; ++i) {
    FleetConfig c = small_fleet();
    c.workload.sessions = 1200;
    c.seed = 11 + static_cast<std::uint64_t>(i);
    configs.push_back(c);
  }
  const int saved_threads = default_pool().threads();
  set_default_pool_threads(1);
  const std::vector<FleetSummary> serial = run_fleet_sweep(configs);
  set_default_pool_threads(4);
  const std::vector<FleetSummary> parallel = run_fleet_sweep(configs);
  set_default_pool_threads(saved_threads);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    expect_summaries_identical(serial[i], parallel[i]);
  // Different seeds genuinely produced different fleets.
  EXPECT_NE(serial[0].model_bytes_last_mile, serial[1].model_bytes_last_mile);
}

TEST(Fleet, EdgeHitRateRisesWithPopularitySkew) {
  std::vector<FleetConfig> configs;
  for (const double skew : {0.1, 1.5}) {
    FleetConfig c = small_fleet();
    c.workload.video_zipf_skew = skew;
    c.workload.cluster_zipf_skew = skew;
    configs.push_back(c);
  }
  const std::vector<FleetSummary> r = run_fleet_sweep(configs);
  EXPECT_GT(r[1].edge_hit_rate(), r[0].edge_hit_rate());
  // More edge hits = fewer origin bytes for the same session count — the
  // fleet-level Fig. 10 claim.
  EXPECT_LT(r[1].model_bytes_origin, r[0].model_bytes_origin);
}

TEST(Fleet, EdgeBudgetIsRespectedAndEvictionHappens) {
  FleetConfig cfg = small_fleet();
  cfg.edge_budget_bytes = 1ull << 20;  // ~8 models: heavy churn
  const FleetSummary s = run_fleet(cfg);
  EXPECT_LE(s.edge_resident_bytes, cfg.edge_budget_bytes);
  EXPECT_GT(s.edge_evictions, 0u);
  // A bigger budget strictly helps the hit rate.
  FleetConfig big = small_fleet();
  big.edge_budget_bytes = 256ull << 20;
  const FleetSummary sb = run_fleet(big);
  EXPECT_GT(sb.edge_hit_rate(), s.edge_hit_rate());
}

TEST(Fleet, UnboundedEdgeMissesOncePerCluster) {
  FleetConfig cfg = small_fleet();
  cfg.edge_budget_bytes = 1ull << 40;  // effectively infinite
  const FleetSummary s = run_fleet(cfg);
  // Cold misses only: at most one origin fetch per global cluster.
  EXPECT_LE(s.edge_misses,
            static_cast<std::uint64_t>(cfg.workload.global_clusters));
  EXPECT_EQ(s.edge_evictions, 0u);
  EXPECT_EQ(s.edge_bypasses, 0u);
}

TEST(Fleet, TierAccountingIsConsistent) {
  const FleetSummary s = run_fleet(small_fleet());
  // Every segment consults the client cache (all segments carry a model).
  EXPECT_EQ(s.client_hits + s.client_misses, s.segments);
  // Every client miss is resolved by exactly one of edge / origin.
  EXPECT_EQ(s.edge_hits + s.edge_misses, s.client_misses);
  // Client-side model traffic covers at least the origin-side traffic.
  EXPECT_GE(s.model_bytes_last_mile, s.model_bytes_origin);
  EXPECT_GT(s.video_bytes, 0u);
  EXPECT_GT(s.mean_quality_db, 0.0);
}

TEST(Fleet, SrUnbatchedServesEveryFrameAlone) {
  // Window off: one infer call per enhanced I frame, occupancy exactly 1,
  // every frame pays base + per_frame with zero wait.
  FleetConfig cfg = small_fleet();
  cfg.sr_batch_window_seconds = 0.0;
  const FleetSummary s = run_fleet(cfg);
  ASSERT_GT(s.sr_frames, 0u);
  EXPECT_EQ(s.sr_frames, s.sr_batches);
  EXPECT_DOUBLE_EQ(s.sr_batch_occupancy(), 1.0);
  const double solo = cfg.sr_base_latency_seconds + cfg.sr_per_frame_seconds;
  EXPECT_NEAR(s.sr_latency_p50_s, solo, 0.001);  // within one histogram bin
  EXPECT_NEAR(s.sr_server_seconds,
              solo * static_cast<double>(s.sr_frames), 1e-6);
}

TEST(Fleet, SrRequestCountTracksModeledSegments) {
  // Exactly one SR request per segment that resolved a cluster model; the
  // client/edge tier split does not change the enhancement count.
  const FleetSummary s = run_fleet(small_fleet());
  EXPECT_EQ(s.sr_frames, s.client_hits + s.client_misses);
}

TEST(Fleet, SrBatchingCoalescesAndCutsServerTime) {
  // A positive window must (a) keep the frame count identical — batching
  // never drops or duplicates work, (b) push occupancy above 1 on a
  // workload with concurrent same-cluster viewers, (c) reduce total server
  // busy time (the sessions-per-server-second win), and (d) trade that for
  // added client latency bounded by the window.
  FleetConfig cfg = small_fleet();
  cfg.workload.sessions = 20000;  // denser arrivals => real concurrency
  cfg.workload.horizon_seconds = 3600.0;
  cfg.sr_batch_window_seconds = 0.0;
  const FleetSummary solo = run_fleet(cfg);

  cfg.sr_batch_window_seconds = 0.25;
  const FleetSummary batched = run_fleet(cfg);

  EXPECT_EQ(batched.sr_frames, solo.sr_frames);
  EXPECT_LT(batched.sr_batches, solo.sr_batches);
  EXPECT_GT(batched.sr_batch_occupancy(), 1.0);
  EXPECT_LT(batched.sr_server_seconds, solo.sr_server_seconds);
  EXPECT_GT(batched.sr_sessions_per_server_second(),
            solo.sr_sessions_per_server_second());
  // Worst case per frame: full window wait + the whole batch's service.
  EXPECT_GE(batched.sr_latency_p50_s, solo.sr_latency_p50_s);
  // Playback is untouched: serving is accounted out-of-band.
  EXPECT_EQ(batched.segments, solo.segments);
  EXPECT_EQ(batched.rebuffer_p99_s, solo.rebuffer_p99_s);
  EXPECT_EQ(batched.mean_quality_db, solo.mean_quality_db);
}

TEST(Fleet, SrBatchingIsDeterministic) {
  FleetConfig cfg = small_fleet();
  cfg.sr_batch_window_seconds = 0.1;
  const FleetSummary a = run_fleet(cfg);
  const FleetSummary b = run_fleet(cfg);
  expect_summaries_identical(a, b);
}

TEST(Fleet, AdvanceLoopIsHeapSilent) {
  const FleetSummary s = run_fleet(small_fleet());
#if DCSR_ALLOC_CHECK
  // With the interposer compiled in, the guarded per-event step observes
  // real heap traffic — but every single allocation must be sanctioned
  // (cache admissions, model-download modelling): the steady-state event
  // loop itself is heap-silent, which is what makes the guard survivable.
  EXPECT_GT(s.advance_heap_allocs, 0u);
  EXPECT_EQ(s.advance_heap_allocs, s.advance_heap_allocs_sanctioned);
#else
  // Without the interposer the counters are defined to stay zero.
  EXPECT_EQ(s.advance_heap_allocs, 0u);
  EXPECT_EQ(s.advance_heap_allocs_sanctioned, 0u);
#endif
}

}  // namespace
}  // namespace dcsr::stream

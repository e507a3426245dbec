#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "stream/workload.hpp"

namespace dcsr::stream {

/// Byte-budget LRU cache for the shared CDN/edge tier, keyed by global
/// cluster id. Unlike the client-side ModelCache (Algorithm 1, unbounded —
/// a client only ever holds one video's handful of micro models), the edge
/// serves the whole fleet and must evict: inserting past the budget drops
/// least-recently-used entries until the new one fits. Objects larger than
/// the whole budget are served but never admitted (counted as bypasses).
class LruByteCache {
 public:
  explicit LruByteCache(std::uint64_t budget_bytes);

  /// Looks up `key`; returns true on a hit (refreshing its recency). On a
  /// miss the entry is admitted with `bytes`, evicting LRU entries as
  /// needed, and false is returned.
  bool fetch(int key, std::uint64_t bytes);

  bool contains(int key) const noexcept { return map_.count(key) > 0; }

  /// Keys from least- to most-recently used — lets tests pin the exact
  /// eviction order instead of just the survivor set.
  std::vector<int> keys_lru_to_mru() const;

  std::uint64_t budget_bytes() const noexcept { return budget_; }
  std::uint64_t resident_bytes() const noexcept { return resident_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::uint64_t bypasses() const noexcept { return bypasses_; }
  std::size_t size() const noexcept { return map_.size(); }

 private:
  struct Entry {
    int key;
    std::uint64_t bytes;
  };
  std::uint64_t budget_;
  std::uint64_t resident_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, bypasses_ = 0;
  std::list<Entry> order_;  // front = MRU, back = LRU
  std::unordered_map<int, std::list<Entry>::iterator> map_;
};

/// Fixed-bin latency/duration histogram: deterministic percentile estimates
/// in O(bins) memory regardless of how many sessions stream, so a 1e7-user
/// run does not hold 1e8 raw samples. Samples beyond the binned range land
/// in an overflow bucket whose percentile reports the exact maximum seen.
class DurationHistogram {
 public:
  DurationHistogram(double bin_seconds, std::size_t bins);

  /// Negative samples count as 0; NaN counts as +inf (an overflow sample).
  void add(double seconds) noexcept;

  /// p in [0, 100]; returns the midpoint of the bin holding the p-th
  /// percentile sample (0 when empty, the exact max for overflow samples).
  double percentile(double p) const noexcept;

  std::uint64_t count() const noexcept { return total_; }

 private:
  std::vector<std::uint64_t> counts_;
  double bin_seconds_;
  std::uint64_t total_ = 0;
  std::uint64_t overflow_ = 0;
  double max_seen_ = 0.0;
};

/// Everything that parameterises one fleet run on top of the workload: the
/// ABR policy every client runs, the shared edge tier, and the network.
struct FleetConfig {
  WorkloadConfig workload;
  AbrConfig abr;
  std::uint64_t seed = 1;

  std::uint64_t edge_budget_bytes = 16ull << 20;  // shared edge model cache
  double edge_latency_seconds = 0.02;    // model fetch RTT, edge hit
  double origin_latency_seconds = 0.25;  // edge miss → origin round trip

  /// Base last-mile throughput (bytes/s) before the per-device-class scale;
  /// each class gets its own seeded Markov (Gilbert-Elliott) trace over the
  /// workload horizon.
  double base_rate_bytes_per_s = 60000.0;

  /// I-frame SR serving model. Every segment that carries a cluster model
  /// costs one I-frame enhancement; the serving tier runs Edsr
  /// enhance_batch_into, so concurrent requests for the *same* cluster model
  /// can share one batched infer call. With `sr_batch_window_seconds == 0`
  /// every request is its own batch (occupancy 1). With a positive window,
  /// the first request for a cluster opens a batch that closes `window`
  /// seconds later; requests arriving before the close join it. A batch of k
  /// frames occupies the server for `base + k * per_frame` seconds and each
  /// member observes `wait_until_close + base + k * per_frame` latency.
  /// Serving is accounted out-of-band (it never perturbs the ABR loop), so
  /// enabling batching changes only the sr_* summary fields.
  double sr_batch_window_seconds = 0.0;
  double sr_base_latency_seconds = 0.008;  // per-infer dispatch + weight traffic
  double sr_per_frame_seconds = 0.004;     // marginal cost of one batch item
};

/// Aggregate of one fleet run. Deliberately flat (no heap members): sweep
/// replications write their summaries into disjoint slots under
/// parallel_for_writes, so the struct's own bytes are the declared claim.
struct FleetSummary {
  std::uint64_t sessions = 0;
  std::uint64_t aborted_dead_network = 0;
  std::uint64_t segments = 0;

  std::uint64_t video_bytes = 0;
  std::uint64_t model_bytes_last_mile = 0;  // model bytes clients downloaded
  std::uint64_t model_bytes_origin = 0;     // model bytes edge pulled from origin

  // Heap traffic observed inside the guarded per-event advance step (zero
  // unless the build carries the DCSR_ALLOC_CHECK interposer). Every raw
  // allocation must be sanctioned (cache admissions, first-touch growth) —
  // the fleet loop itself is heap-silent, and tests pin the two equal.
  std::uint64_t advance_heap_allocs = 0;
  std::uint64_t advance_heap_allocs_sanctioned = 0;

  std::uint64_t client_hits = 0;    // served from the device's ModelCache
  std::uint64_t client_misses = 0;  // had to leave the device
  std::uint64_t edge_hits = 0;      // client misses served by the edge tier
  std::uint64_t edge_misses = 0;    // went all the way to origin
  std::uint64_t edge_evictions = 0;
  std::uint64_t edge_bypasses = 0;
  std::uint64_t edge_resident_bytes = 0;  // cache occupancy at end of run

  // Model-fetch latency across all client fetch attempts (client hits are
  // 0 s) and per-session playback health, as histogram percentiles.
  double fetch_latency_p50_s = 0.0, fetch_latency_p99_s = 0.0;
  double startup_p50_s = 0.0, startup_p99_s = 0.0;
  double rebuffer_p50_s = 0.0, rebuffer_p99_s = 0.0;

  // I-frame SR serving: frames enhanced, batched infer calls issued, and
  // the per-frame latency (batch wait + service) distribution. With the
  // batch window off, sr_batches == sr_frames and occupancy is exactly 1.
  std::uint64_t sr_frames = 0;
  std::uint64_t sr_batches = 0;
  double sr_latency_p50_s = 0.0, sr_latency_p99_s = 0.0;
  double sr_server_seconds = 0.0;  // total server busy time across batches

  double mean_quality_db = 0.0;
  double mean_rung = 0.0;

  double client_hit_rate() const noexcept {
    const auto n = client_hits + client_misses;
    return n ? static_cast<double>(client_hits) / static_cast<double>(n) : 0.0;
  }
  double edge_hit_rate() const noexcept {
    const auto n = edge_hits + edge_misses;
    return n ? static_cast<double>(edge_hits) / static_cast<double>(n) : 0.0;
  }
  double model_bytes_per_session() const noexcept {
    return sessions ? static_cast<double>(model_bytes_last_mile) /
                          static_cast<double>(sessions)
                    : 0.0;
  }
  double total_bytes_per_session() const noexcept {
    return sessions ? static_cast<double>(video_bytes + model_bytes_last_mile) /
                          static_cast<double>(sessions)
                    : 0.0;
  }
  double sr_batch_occupancy() const noexcept {
    return sr_batches ? static_cast<double>(sr_frames) /
                            static_cast<double>(sr_batches)
                      : 0.0;
  }
  /// Sessions one SR server can sustain per busy-second — the serving-side
  /// throughput figure batching is meant to improve.
  double sr_sessions_per_server_second() const noexcept {
    return sr_server_seconds > 0.0
               ? static_cast<double>(sessions) / sr_server_seconds
               : 0.0;
  }
};

/// Runs the event-driven fleet simulation: sessions arrive per the
/// workload's diurnal process and advance segment by segment through a
/// single time-ordered event queue — each step is an AbrSession download
/// whose micro model resolves through client cache → shared edge LRU →
/// origin, with the tier latency charged onto that segment's download.
/// Fully deterministic from cfg (+ its seed): repeated runs produce
/// field-for-field identical summaries.
FleetSummary run_fleet(const FleetConfig& cfg);

/// Runs independent fleet configurations (replication seeds, skew sweeps)
/// in parallel through parallel_for_writes — one config per output slot, so
/// the PR-1 bit-identical-across-DCSR_THREADS contract holds: each run is
/// self-contained and serial inside, and slots are disjoint claims.
std::vector<FleetSummary> run_fleet_sweep(const std::vector<FleetConfig>& configs);

}  // namespace dcsr::stream

#include "stream/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "stream/manifest.hpp"  // kNoModel
#include "stream/model_cache.hpp"
#include "stream/net_traces.hpp"
#include "util/alloc_check.hpp"
#include "util/thread_pool.hpp"

namespace dcsr::stream {

// ---------------------------------------------------------------------------
// LruByteCache

LruByteCache::LruByteCache(std::uint64_t budget_bytes) : budget_(budget_bytes) {}

bool LruByteCache::fetch(int key, std::uint64_t bytes) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);  // refresh to MRU
    return true;
  }
  ++misses_;
  if (bytes > budget_) {
    // Larger than the whole cache: serve it but never admit it, otherwise
    // one oversized object would flush the entire tier.
    ++bypasses_;
    return false;
  }
  while (resident_ + bytes > budget_ && !order_.empty()) {
    const Entry& victim = order_.back();
    resident_ -= victim.bytes;
    map_.erase(victim.key);
    order_.pop_back();
    ++evictions_;
  }
  {
    // Admission allocates a list node and a map slot by design (this models
    // an edge-tier download, not per-frame work), so it is sanctioned even
    // when the caller holds a hot-path guard.
    AllocAllowScope allow;
    order_.push_front({key, bytes});
    map_[key] = order_.begin();
  }
  resident_ += bytes;
  return false;
}

std::vector<int> LruByteCache::keys_lru_to_mru() const {
  std::vector<int> keys;
  keys.reserve(order_.size());
  for (auto it = order_.rbegin(); it != order_.rend(); ++it)
    keys.push_back(it->key);
  return keys;
}

// ---------------------------------------------------------------------------
// DurationHistogram

DurationHistogram::DurationHistogram(double bin_seconds, std::size_t bins)
    : counts_(bins, 0), bin_seconds_(bin_seconds) {}

void DurationHistogram::add(double seconds) noexcept {
  // A NaN duration counts as +inf: it lands in the overflow bucket and a
  // percentile that falls there reports +inf, so a broken sample shows
  // instead of vanishing. Negative durations count as 0.
  if (std::isnan(seconds)) seconds = std::numeric_limits<double>::infinity();
  seconds = std::max(seconds, 0.0);
  max_seen_ = std::max(max_seen_, seconds);
  // Compare before casting: a quotient at or past the bin count (+inf and
  // values past SIZE_MAX included) never reaches the cast, which would be
  // undefined for it.
  const double bin = seconds / bin_seconds_;
  if (bin < static_cast<double>(counts_.size()))
    ++counts_[static_cast<std::size_t>(bin)];
  else
    ++overflow_;
  ++total_;
}

double DurationHistogram::percentile(double p) const noexcept {
  if (total_ == 0) return 0.0;
  const double target =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (static_cast<double>(seen) >= target && counts_[b] > 0)
      return (static_cast<double>(b) + 0.5) * bin_seconds_;
  }
  return max_seen_;  // percentile falls in the overflow bucket
}

// ---------------------------------------------------------------------------
// Event-driven fleet loop

namespace {

// Per-session live state, created at arrival and destroyed at completion.
// The AbrSession's clock is wall time (seeded with the arrival), so every
// session reads the shared diurnal traces at the right offset.
struct ActiveSession {
  AbrSession abr;
  ModelCache client_cache;  // Algorithm 1, per device
  std::uint32_t spec = 0;   // index into workload.sessions
  int next_segment = 0;
  double quality_sum = 0.0;
  double rung_sum = 0.0;
  double rebuffer_sum = 0.0;

  ActiveSession(const std::vector<Rung>& ladder, const AbrConfig& cfg,
                double arrival, std::uint32_t spec_index)
      : abr(ladder, cfg, arrival), spec(spec_index) {}
};

struct Event {
  double time = 0.0;
  std::uint32_t session = 0;
};

// Min-heap ordering with a session-id tie-break: simultaneous events pop in
// a deterministic order, never in heap-internal order.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.session > b.session;
  }
};

}  // namespace

FleetSummary run_fleet(const FleetConfig& cfg) {
  const Workload workload = generate_workload(cfg.workload, cfg.seed);

  // One Gilbert-Elliott trace per device class over the full horizon; the
  // last value repeats for sessions that outlive it. Forked from the run
  // seed so the sweep's replications are independent but reproducible.
  Rng trace_root(cfg.seed ^ 0x5eedf1ee7u);
  std::vector<ThroughputTrace> class_traces;
  class_traces.reserve(workload.device_mix.size());
  const int trace_seconds =
      std::max(60, static_cast<int>(cfg.workload.horizon_seconds));
  for (const auto& cls : workload.device_mix) {
    MarkovTraceConfig mt;
    mt.good_rate = cfg.base_rate_bytes_per_s * cls.network_scale;
    mt.bad_rate = mt.good_rate / 8.0;
    Rng class_rng = trace_root.fork();
    class_traces.push_back(markov_trace(mt, trace_seconds, class_rng));
  }

  LruByteCache edge(cfg.edge_budget_bytes);
  DurationHistogram fetch_hist(0.001, 4096);   // 1 ms bins to ~4 s
  DurationHistogram startup_hist(0.05, 4096);  // 50 ms bins to ~205 s
  DurationHistogram rebuffer_hist(0.05, 4096);
  DurationHistogram sr_hist(0.001, 4096);      // SR wait + service, 1 ms bins

  FleetSummary sum;
  sum.sessions = workload.sessions.size();

  // One open SR batch per cluster model. Requests arrive in global event
  // order (the queue is time-sorted), so a request past the batch's close
  // time lazily flushes it before opening the next one.
  struct OpenBatch {
    double close = 0.0;
    std::vector<double> waits;  // each member's wait until the batch closes
  };
  std::unordered_map<int, OpenBatch> sr_open;

  auto flush_sr_batch = [&](OpenBatch& b) {
    const std::size_t k = b.waits.size();
    if (k == 0) return;
    const double service = cfg.sr_base_latency_seconds +
                           cfg.sr_per_frame_seconds * static_cast<double>(k);
    for (const double w : b.waits) sr_hist.add(w + service);
    sum.sr_server_seconds += service;
    sum.sr_frames += k;
    ++sum.sr_batches;
    b.waits.clear();
  };

  auto sr_request = [&](int cluster, double now) {
    if (cfg.sr_batch_window_seconds <= 0.0) {
      // Unbatched serving: every I frame is its own infer call.
      const double service =
          cfg.sr_base_latency_seconds + cfg.sr_per_frame_seconds;
      sr_hist.add(service);
      sum.sr_server_seconds += service;
      ++sum.sr_frames;
      ++sum.sr_batches;
      return;
    }
    // Batch assembly allocates (map slot, wait-list growth) by design — it
    // models server-side queueing, not per-frame client work.
    AllocAllowScope allow;
    OpenBatch& b = sr_open[cluster];
    if (!b.waits.empty() && now > b.close) flush_sr_batch(b);
    if (b.waits.empty()) b.close = now + cfg.sr_batch_window_seconds;
    b.waits.push_back(b.close - now);
  };

  std::unordered_map<std::uint32_t, ActiveSession> active;
  std::priority_queue<Event, std::vector<Event>, EventAfter> queue;
  std::size_t next_arrival = 0;

  auto finalize = [&](ActiveSession& s, bool aborted) {
    const int played = s.next_segment;
    if (played > 0) {
      sum.mean_quality_db += s.quality_sum;
      sum.mean_rung += s.rung_sum;
    }
    if (aborted) ++sum.aborted_dead_network;
    startup_hist.add(s.abr.startup_seconds());
    rebuffer_hist.add(s.rebuffer_sum);
  };

  // Advance session `id` through one segment at the current event time.
  // Returns false when the session finished (or hit a dead network).
  auto advance_one = [&](std::uint32_t id) -> bool {
    ActiveSession& s = active.at(id);
    const SessionSpec& spec = workload.sessions[s.spec];
    const VideoMeta& meta =
        workload.catalog[static_cast<std::size_t>(spec.video)];
    const auto seg = static_cast<std::size_t>(s.next_segment);

    const int rung = s.abr.choose_rung(seg);

    // Resolve the segment's micro model through the tier hierarchy.
    double model_bytes = 0.0;
    double extra_latency = 0.0;
    const int cluster = meta.segment_cluster[seg];
    if (cluster != kNoModel) {
      // The segment's I frame gets enhanced with the cluster model; the
      // serving tier may coalesce this with concurrent same-cluster
      // requests into one batched infer (enhance_batch_into).
      sr_request(cluster, s.abr.clock());
      if (s.client_cache.fetch(cluster)) {
        ++sum.client_hits;
        fetch_hist.add(0.0);
      } else {
        ++sum.client_misses;
        const std::uint64_t bytes = workload.cluster_model_bytes
            [static_cast<std::size_t>(cluster)];
        model_bytes = static_cast<double>(bytes);
        sum.model_bytes_last_mile += bytes;
        if (edge.fetch(cluster, bytes)) {
          ++sum.edge_hits;
          extra_latency = cfg.edge_latency_seconds;
        } else {
          ++sum.edge_misses;
          extra_latency = cfg.origin_latency_seconds;
          sum.model_bytes_origin += bytes;
        }
        fetch_hist.add(extra_latency);
      }
    }

    const ThroughputTrace& trace =
        class_traces[static_cast<std::size_t>(spec.device_class)];
    const AbrSegmentLog log =
        s.abr.step(seg, rung, model_bytes, extra_latency, trace);
    if (s.abr.dead_network()) {
      finalize(s, /*aborted=*/true);
      return false;
    }

    ++sum.segments;
    sum.video_bytes += log.bytes - static_cast<std::uint64_t>(model_bytes);
    s.quality_sum += log.quality_db;
    s.rung_sum += rung;
    s.rebuffer_sum += log.rebuffer_seconds;
    ++s.next_segment;
    if (s.next_segment >= spec.watch_segments) {
      finalize(s, /*aborted=*/false);
      return false;
    }
    return true;
  };

  // The per-event step runs under a hot-path guard: any heap traffic inside
  // it must be sanctioned (cache admissions, container first-touch), and the
  // raw/sanctioned delta is exported so tests and the CLI can pin the loop
  // heap-silent. In builds without the interposer the deltas are zero.
  auto advance = [&](std::uint32_t id) -> bool {
    const AllocStats before = thread_alloc_stats();
    bool alive;
    {
      HotPathGuard alloc_guard("stream/fleet.cpp:advance");
      alive = advance_one(id);
    }
    const AllocStats after = thread_alloc_stats();
    sum.advance_heap_allocs += after.allocs - before.allocs;
    sum.advance_heap_allocs_sanctioned += after.sanctioned - before.sanctioned;
    return alive;
  };

  const std::size_t n_specs = workload.sessions.size();
  while (next_arrival < n_specs || !queue.empty()) {
    // Merge the arrival-sorted spec list with the pending-segment queue;
    // arrivals win ties so a new viewer's first request lands before an
    // existing session's same-instant continuation.
    const bool take_arrival =
        next_arrival < n_specs &&
        (queue.empty() ||
         workload.sessions[next_arrival].arrival_seconds <= queue.top().time);
    if (take_arrival) {
      const auto id = static_cast<std::uint32_t>(next_arrival);
      const SessionSpec& spec = workload.sessions[next_arrival];
      const VideoMeta& meta =
          workload.catalog[static_cast<std::size_t>(spec.video)];
      active.emplace(
          std::piecewise_construct, std::forward_as_tuple(id),
          std::forward_as_tuple(meta.ladder, cfg.abr, spec.arrival_seconds, id));
      ++next_arrival;
      if (advance(id))
        queue.push({active.at(id).abr.clock(), id});
      else
        active.erase(id);
    } else {
      const Event ev = queue.top();
      queue.pop();
      if (advance(ev.session))
        queue.push({active.at(ev.session).abr.clock(), ev.session});
      else
        active.erase(ev.session);
    }
  }

  // Flush still-open SR batches in cluster order so the floating-point sums
  // never depend on hash-map iteration order.
  {
    std::vector<int> open_clusters;
    open_clusters.reserve(sr_open.size());
    for (const auto& [c, b] : sr_open)
      if (!b.waits.empty()) open_clusters.push_back(c);
    std::sort(open_clusters.begin(), open_clusters.end());
    for (const int c : open_clusters) flush_sr_batch(sr_open.at(c));
  }

  if (sum.segments > 0) {
    sum.mean_quality_db /= static_cast<double>(sum.segments);
    sum.mean_rung /= static_cast<double>(sum.segments);
  }
  sum.edge_evictions = edge.evictions();
  sum.edge_bypasses = edge.bypasses();
  sum.edge_resident_bytes = edge.resident_bytes();
  sum.fetch_latency_p50_s = fetch_hist.percentile(50.0);
  sum.fetch_latency_p99_s = fetch_hist.percentile(99.0);
  sum.startup_p50_s = startup_hist.percentile(50.0);
  sum.startup_p99_s = startup_hist.percentile(99.0);
  sum.rebuffer_p50_s = rebuffer_hist.percentile(50.0);
  sum.rebuffer_p99_s = rebuffer_hist.percentile(99.0);
  sum.sr_latency_p50_s = sr_hist.percentile(50.0);
  sum.sr_latency_p99_s = sr_hist.percentile(99.0);
  return sum;
}

std::vector<FleetSummary> run_fleet_sweep(const std::vector<FleetConfig>& configs) {
  std::vector<FleetSummary> out(configs.size());
  if (configs.empty()) return out;
  parallel_for_writes(
      0, static_cast<std::int64_t>(configs.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        return span_of(out.data() + lo, static_cast<std::size_t>(hi - lo));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          out[static_cast<std::size_t>(i)] =
              run_fleet(configs[static_cast<std::size_t>(i)]);
      },
      "stream/fleet.cpp:run_fleet_sweep");
  return out;
}

}  // namespace dcsr::stream

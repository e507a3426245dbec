// fleet_day: the default dcsr_fleet configuration (1000 videos, Zipf 0.8,
// 16 MiB edge, one-day horizon, 100000 sessions) with a 50 ms SR batching
// window, timed one stream::run_fleet at a time. It exercises only the
// stream and util layers, so it is the workload on which every media change
// must show no change, as the media workloads are for every fleet change.

#include <cstring>
#include <type_traits>

#include "bench.hpp"
#include "stream/fleet.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace dcsr;
using stream::FleetConfig;
using stream::FleetSummary;

constexpr int kSetups = 3;
constexpr int kSweepRounds = 3;

FleetConfig fleet_config(std::uint64_t seed) {
  FleetConfig cfg;
  cfg.seed = seed;
  cfg.sr_batch_window_seconds = 0.05;
  return cfg;
}

// Field for field, bit for bit. FleetSummary is flat by design (sweep slots
// are claimed as raw bytes), and every field is eight bytes wide, so the
// struct has no padding for memcmp to trip over.
bool same_summary(const FleetSummary& a, const FleetSummary& b) {
  static_assert(std::is_trivially_copyable_v<FleetSummary> &&
                sizeof(FleetSummary) % sizeof(std::uint64_t) == 0);
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool summary_valid(const FleetSummary& s, const FleetConfig& cfg) {
  return s.sessions == cfg.workload.sessions &&
         s.advance_heap_allocs == s.advance_heap_allocs_sanctioned;
}

}  // namespace

void run_fleet_day(const Options& opts, Report& report) {
  const FleetConfig cfg = fleet_config(opts.seed);

  // Set-up: one warm-up run; every later run must reproduce it exactly.
  std::vector<double> setup_s;
  FleetSummary reference{};
  for (int i = 0; i < (opts.trace ? 1 : kSetups); ++i) {
    const double t0 = now_s();
    const FleetSummary warm = stream::run_fleet(cfg);
    setup_s.push_back(now_s() - t0);
    if (i == 0) {
      reference = warm;
      report.outcomes.run([&] { return summary_valid(warm, cfg); });
    } else {
      report.outcomes.run([&] { return same_summary(warm, reference); });
    }
  }
  const double sessions = static_cast<double>(cfg.workload.sessions);

  std::vector<double> untraced_s;
  const auto untraced = [&] {
    report.outcomes.run([&] {
      const double t0 = now_s();
      const FleetSummary summary = stream::run_fleet(cfg);
      untraced_s.push_back(now_s() - t0);
      return same_summary(summary, reference);
    });
  };

  const double start = now_s();
  if (!opts.trace) {
    do untraced();
    while (now_s() - start < opts.seconds);

    const double run_s = median(untraced_s);
    report.set("setup_s", median(setup_s));
    report.note_samples("set-up", setup_s);
    report.note_samples("run_fleet", untraced_s);
    report.set("op_s", run_s);
    report.set("items_per_s", sessions / run_s);
    report.set("quality_db", reference.mean_quality_db);
    report.set("wire_kb_per_session", reference.total_bytes_per_session() / 1e3);
    report.note("fleet_sessions_per_s = %.1f sessions/s (median run_fleet %.4f s of %zu)",
                sessions / run_s, run_s, untraced_s.size());
    report.note("model_kb_per_session = %.3f KB", reference.model_bytes_per_session() / 1e3);
    return;
  }

  // Traced: alternate untraced runs with traced ones that also generate the
  // workload on its own, so generation and the event loop separate.
  Tracer& tr = report.tracer;
  do {
    untraced();
    report.outcomes.run([&] {
      {
        Tracer::Scope span(tr, "stream.workload_gen");
        stream::generate_workload(cfg.workload, cfg.seed);
      }
      Tracer::Scope span(tr, "stream.run_fleet");
      return same_summary(stream::run_fleet(cfg), reference);
    });
  } while ((now_s() - start < opts.seconds || tr.count("stream.run_fleet") < 2) &&
           report.outcomes.failed() == 0);

  // Replication seeds, one per pool thread: serial run_fleet calls against
  // one run_fleet_sweep over the same configurations.
  std::vector<FleetConfig> configs;
  for (int i = 0; i < opts.threads; ++i)
    configs.push_back(fleet_config(opts.seed + static_cast<std::uint64_t>(i)));
  std::vector<double> speedups;
  for (int round = 0; round < kSweepRounds; ++round) {
    std::vector<FleetSummary> serial;
    double serial_s = 0.0;
    for (const FleetConfig& c : configs) {
      const double t0 = now_s();
      serial.push_back(stream::run_fleet(c));
      serial_s += now_s() - t0;
    }
    const double t0 = now_s();
    const std::vector<FleetSummary> swept = stream::run_fleet_sweep(configs);
    const double sweep_s = now_s() - t0;
    tr.record("util.sweep", t0, t0 + sweep_s, 0);
    speedups.push_back(serial_s / sweep_s);
    for (std::size_t i = 0; i < configs.size(); ++i)
      report.outcomes.run([&] {
        return i < swept.size() && same_summary(swept[i], serial[i]) &&
               summary_valid(swept[i], configs[i]);
      });
  }

  const double runs = static_cast<double>(tr.count("stream.run_fleet"));
  if (runs == 0 || untraced_s.empty()) return;
  const double gen_s = tr.total("stream.workload_gen") / runs;
  const double event_loop_s = tr.total("stream.run_fleet") / runs - gen_s;
  report.set("stream.workload_gen_s", gen_s);
  report.set("stream.event_loop_s", event_loop_s);
  report.set("stream.segments_per_s", static_cast<double>(reference.segments) / event_loop_s);
  report.set("stream.client_hit_rate", reference.client_hit_rate());
  report.set("stream.edge_hit_rate", reference.edge_hit_rate());
  report.set("stream.edge_evictions", static_cast<double>(reference.edge_evictions));
  report.set("stream.model_kb_per_session", reference.model_bytes_per_session() / 1e3);
  report.set("stream.sr_batch_occupancy", reference.sr_batch_occupancy());
  report.set("util.sweep_speedup", median(speedups));
  report.set("trace.overhead_s",
             median(tr.durations("stream.run_fleet")) - median(untraced_s));
}

}  // namespace perfbench

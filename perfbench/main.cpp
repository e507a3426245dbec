// dcsr_perfbench: runs one workload of the benchmark and prints its metrics.
//
//   dcsr_perfbench --workload server_prepare|client_playback|fleet_day
//                  --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// The last line of standard output is one JSON object: whether every output
// check passed, the operations attempted and failed, and the metrics, the
// end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
// perfbench/README.md describes every metric.

#include <sys/resource.h>

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>

#include "bench.hpp"
#include "simd/dispatch.hpp"
#include "tensor/workspace.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

void Report::note(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  notes.emplace_back(buf);
}

void Report::note_samples(const char* what, const std::vector<double>& seconds) {
  if (seconds.empty()) return;
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s: %zu samples, median %.4f s", what, seconds.size(),
                median(seconds));
  std::string line = buf;
  if (const auto p = highest_tail_percentile(seconds.size()); p && *p > 50.0) {
    std::snprintf(buf, sizeof buf, ", p%g %.4f s", *p, dcsr::percentile(seconds, *p));
    line += buf;
  }
  line += "; in run order:";
  for (const double s : seconds) {
    std::snprintf(buf, sizeof buf, " %.4f", s);
    line += buf;
  }
  notes.push_back(std::move(line));
}

PoolThreads::PoolThreads(int threads, int restore_to) : restore_to_(restore_to) {
  dcsr::set_default_pool_threads(threads);
}

PoolThreads::~PoolThreads() { dcsr::set_default_pool_threads(restore_to_); }

std::uint64_t workspace_misses() { return dcsr::Workspace::aggregate_stats().misses; }

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json and README.md.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_s", "s"},
    {"items_per_s", "1/s"},
    {"quality_db", "dB"},
    {"wire_kb_per_session", "KB"},
    {"peak_rss_mb", "MiB"},
};

// A workload that does not exercise a layer reports its metrics as 0.
constexpr MetricSpec kPerLayer[] = {
    {"split.segment_s", "s"},
    {"codec.encode_s", "s"},
    {"codec.encode_fps", "frames/s"},
    {"codec.decode_s", "s"},
    {"codec.decode_fps", "frames/s"},
    {"core.iframe_pairs_s", "s"},
    {"core.prepare_traced_s", "s"},
    {"core.unattributed_s", "s"},
    {"core.play_traced_s", "s"},
    {"core.overlap", "ratio"},
    {"features.vae_train_s", "s"},
    {"features.extract_s", "s"},
    {"cluster.silhouette_s", "s"},
    {"cluster.kmeans_s", "s"},
    {"sr.clusters", "count"},
    {"sr.train_phase_s", "s"},
    {"sr.train_s_max", "s"},
    {"sr.train_s_sum", "s"},
    {"sr.train_balance", "ratio"},
    {"sr.train_gflop_per_s", "GFLOP/s"},
    {"sr.enhance_ms_p50", "ms"},
    {"sr.enhance_ms_p95", "ms"},
    {"sr.enhance_calls", "count"},
    {"sr.enhance_gflop_per_s", "GFLOP/s"},
    {"image.convert_s", "s"},
    {"image.metrics_s", "s"},
    {"video.render_s", "s"},
    {"tensor.ws_misses", "count"},
    {"tensor.ws_misses_per_frame", "count"},
    {"stream.workload_gen_s", "s"},
    {"stream.event_loop_s", "s"},
    {"stream.segments_per_s", "1/s"},
    {"stream.client_hit_rate", "ratio"},
    {"stream.edge_hit_rate", "ratio"},
    {"stream.edge_evictions", "count"},
    {"stream.model_kb_per_session", "KB"},
    {"stream.sr_batch_occupancy", "ratio"},
    {"util.sweep_speedup", "ratio"},
    {"trace.overhead_s", "s"},
    {"split.segment_s_t1", "s"},
    {"codec.encode_s_t1", "s"},
    {"core.iframe_pairs_s_t1", "s"},
    {"features.vae_train_s_t1", "s"},
    {"features.extract_s_t1", "s"},
    {"cluster.silhouette_s_t1", "s"},
    {"cluster.kmeans_s_t1", "s"},
    {"sr.train_phase_s_t1", "s"},
    {"sr.train_s_max_t1", "s"},
    {"core.prepare_traced_s_t1", "s"},
    {"core.unattributed_s_t1", "s"},
    {"codec.decode_s_t1", "s"},
    {"sr.enhance_ms_p50_t1", "ms"},
    {"image.convert_s_t1", "s"},
    {"image.metrics_s_t1", "s"},
    {"video.render_s_t1", "s"},
    {"core.play_traced_s_t1", "s"},
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The build and machine every number was measured on. Warns when a kernel
// family runs a weaker backend than the host supports: a build that loses
// its SIMD kernels is slower by construction and must not read as a
// regression of the code under test.
void print_stamp(const char* workload, const Options& opts) {
  namespace simd = dcsr::simd;
  const char* env_threads = dcsr::env_raw("DCSR_THREADS");
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "DCSR_THREADS=%s pool=%d build=%s\n",
              workload, static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, std::thread::hardware_concurrency(),
              env_threads ? env_threads : "unset", opts.threads, PERFBENCH_BUILD_TYPE);
  std::printf("perfbench: %s\n", simd::report().c_str());

  simd::Backend best = simd::Backend::kScalar;
  for (const simd::Backend b : {simd::Backend::kNeon, simd::Backend::kSse2,
                                simd::Backend::kAvx2})
    if (simd::host_supports(b)) best = b;
  const simd::KernelTable& active = simd::active();
  const simd::KernelTable* ideal = simd::table_for(best);
  bool weaker = active.id != best;
  for (int f = 0; ideal && f < simd::kNumFamilies; ++f)
    weaker = weaker || active.origin[f] != ideal->origin[f];
  if (weaker) {
    const std::string msg = std::string("perfbench: WARNING: the host's best backend is ") +
                            simd::backend_name(best) + ", this build (" +
                            PERFBENCH_BUILD_TYPE + ") dispatches as above";
    std::printf("%s\n", msg.c_str());
    std::fprintf(stderr, "%s\n", msg.c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: dcsr_perfbench --workload server_prepare|client_playback|"
               "fleet_day --seed N --seconds S --trace 0|1 [--spans-out PATH]\n");
  return 2;
}

}  // namespace

int run(int argc, char** argv) {
  Options opts;
  std::string workload, spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") opts.seconds = std::atof(value.c_str());
    else if (flag == "--trace") opts.trace = value == "1";
    else if (flag == "--spans-out") spans_out = value;
    else return usage();
  }
  if (argc % 2 == 0 || !(opts.seconds > 0.0)) return usage();

  void (*workload_fn)(const Options&, Report&) = nullptr;
  if (workload == "server_prepare") workload_fn = run_server_prepare;
  else if (workload == "client_playback") workload_fn = run_client_playback;
  else if (workload == "fleet_day") workload_fn = run_fleet_day;
  else return usage();

  opts.threads = dcsr::default_thread_count();
  print_stamp(workload.c_str(), opts);
  std::fflush(stdout);

  Report report;
  try {
    workload_fn(opts, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  report.set("peak_rss_mb", peak_rss_mb());
  for (const std::string& line : report.notes) std::printf("perfbench: %s\n", line.c_str());

  if (opts.trace && !spans_out.empty() &&
      !write_chrome_trace(spans_out, {&report.tracer, &report.tracer_t1}))
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());

  const auto known = [](const std::string& name) {
    for (const auto& table : {std::span<const MetricSpec>(kEndToEnd),
                              std::span<const MetricSpec>(kPerLayer)})
      for (const MetricSpec& m : table)
        if (name == m.name) return true;
    return false;
  };
  for (const auto& [name, value] : report.metrics)
    if (!known(name)) {
      std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
      return 1;
    }

  bool correct = report.outcomes.all_passed();
  std::string metrics;
  for (const MetricSpec& m : opts.trace ? std::span<const MetricSpec>(kPerLayer)
                                        : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = report.metrics.find(m.name);
    if (it == report.metrics.end() && !opts.trace) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n", workload.c_str(), m.name);
      return 1;
    }
    double value = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", m.name);
      correct = false;
      value = 0.0;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value, m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.outcomes.attempted()),
              static_cast<unsigned long long>(report.outcomes.failed()), metrics.c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }

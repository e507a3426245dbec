#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;  // size of the default pool (DCSR_THREADS)
};

/// What one run of a workload reports.
struct Report {
  Outcomes outcomes;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  // human-readable lines, printed first
  Tracer tracer;                   // traced passes at the pool's full size
  Tracer tracer_t1;                // traced pass at DCSR_THREADS=1

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Notes a timing's sample count, median and highest tail percentile with
  /// ten samples beyond it, then every sample in run order.
  void note_samples(const char* what, const std::vector<double>& seconds);
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// Resizes the default pool for one scope and restores it afterwards.
class PoolThreads {
 public:
  PoolThreads(int threads, int restore_to);
  ~PoolThreads();
  PoolThreads(const PoolThreads&) = delete;
  PoolThreads& operator=(const PoolThreads&) = delete;

 private:
  int restore_to_;
};

/// Allocating workspace checkouts so far, summed over live threads.
std::uint64_t workspace_misses();

void run_server_prepare(const Options& opts, Report& report);
void run_client_playback(const Options& opts, Report& report);
void run_fleet_day(const Options& opts, Report& report);

}  // namespace perfbench

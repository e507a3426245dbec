#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double now_s();

/// In-memory span recorder for the traced runs. The benchmark opens a span
/// around each call it makes into a layer's public functions; nothing inside
/// the library is instrumented. A span's parent is the innermost span open
/// when it began, so a layer's self time is its duration minus its
/// children's.
///
/// Spans open and close on the thread that drives the workload. Work timed
/// on pool threads (per-cluster training) is added afterwards with record(),
/// each on its own lane so that overlapping siblings stay apart in the
/// exported timeline.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;  // index of the enclosing span, -1 at top level
    int lane;    // 0 for the driving thread
    double start_s;
    double end_s;
    double duration() const { return end_s - start_s; }
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  /// Adds a span timed elsewhere as a child of the innermost open span.
  void record(const char* name, double start_s, double end_s, int lane);

  std::vector<double> durations(std::string_view name) const;
  std::size_t count(std::string_view name) const;
  double total(std::string_view name) const;
  /// Sum over the named spans of their duration minus their children's.
  double self_total(std::string_view name) const;

  /// Appends the spans as Chrome trace events (the "traceEvents" array
  /// members, comma-separated) under process id `pid`.
  void append_chrome_events(std::string& out, int pid) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Writes the spans of several tracers to one Chrome/Perfetto trace file,
/// tracer i under process id i + 1. Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

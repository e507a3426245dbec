#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size())) {
  tracer_.spans_.push_back({name, tracer_.open_, 0, now_s(), 0.0});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_s = now_s();
  tracer_.open_ = span.parent;
}

void Tracer::record(const char* name, double start_s, double end_s, int lane) {
  spans_.push_back({name, open_, lane, start_s, end_s});
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(s.duration());
  return out;
}

std::size_t Tracer::count(std::string_view name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) n += name == s.name;
  return n;
}

double Tracer::total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) sum += s.duration();
  return sum;
}

double Tracer::self_total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) sum += s.duration();
    if (s.parent >= 0 && name == spans_[static_cast<std::size_t>(s.parent)].name)
      sum -= s.duration();
  }
  return sum;
}

void Tracer::append_chrome_events(std::string& out, int pid) const {
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  out.empty() ? "" : ",\n", s.name, pid, s.lane + 1,
                  s.start_s * 1e6, s.duration() * 1e6);
    out += buf;
  }
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  std::string events;
  for (std::size_t i = 0; i < tracers.size(); ++i)
    tracers[i]->append_chrome_events(events, static_cast<int>(i) + 1);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fprintf(f, "{\"traceEvents\":[\n%s\n]}\n", events.c_str()) > 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench

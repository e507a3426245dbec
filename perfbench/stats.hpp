#pragma once

// Statistics the benchmark reports with: medians of repeated timings, the
// tail-percentile rule, and the count of failed operations.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

/// Median of the samples (mean of the two middle ones for an even count).
inline double median(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("median: no samples");
  return dcsr::percentile(xs, 50.0);
}

/// The tail percentiles the benchmark reports, highest first.
inline constexpr double kTailPercentiles[] = {99.9, 99.0, 95.0, 90.0, 50.0};

/// Samples needed so that at least ten lie beyond percentile `p`.
inline std::size_t samples_for_percentile(double p) {
  if (!(p >= 0.0 && p < 100.0))
    throw std::invalid_argument("samples_for_percentile: p outside [0, 100)");
  // 10 / (1 - p/100), rounded up; the relative slack absorbs the binary
  // representation of p (100 - 99.9 is not exactly 0.1).
  const double exact = 1000.0 / (100.0 - p);
  return static_cast<std::size_t>(std::ceil(exact * (1.0 - 1e-9)));
}

/// The highest reported percentile with at least ten of `n` samples beyond
/// it, or nothing when even the median has fewer than ten beyond it.
inline std::optional<double> highest_tail_percentile(std::size_t n) {
  for (const double p : kTailPercentiles)
    if (n >= samples_for_percentile(p)) return p;
  return std::nullopt;
}

/// Operations attempted and failed. An operation fails when its output check
/// returns false or when it throws.
class Outcomes {
 public:
  template <typename Op>
  bool run(Op&& op) {
    ++attempted_;
    bool ok = false;
    try {
      ok = op();
      if (!ok) std::fprintf(stderr, "perfbench: output check failed\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: operation threw: %s\n", e.what());
    }
    if (!ok) ++failed_;
    return ok;
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool all_passed() const noexcept { return attempted_ > 0 && failed_ == 0; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench

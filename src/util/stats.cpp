#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dcsr {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept { return std::sqrt(variance(xs)); }

double min_of(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("min_of: empty span");
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("max_of: empty span");
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::span<const double> xs, double p) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<double> empirical_cdf(std::span<const double> samples,
                                  std::span<const double> probes) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(probes.size());
  for (double x : probes) {
    const auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
    out.push_back(sorted.empty()
                      ? 0.0
                      : static_cast<double>(it - sorted.begin()) /
                            static_cast<double>(sorted.size()));
  }
  return out;
}

std::size_t argmax(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("argmax: empty span");
  return static_cast<std::size_t>(std::max_element(xs.begin(), xs.end()) -
                                  xs.begin());
}

}  // namespace dcsr

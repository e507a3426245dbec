#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dcsr {

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Population variance; returns 0 for spans shorter than 1.
double variance(std::span<const double> xs) noexcept;

/// Population standard deviation.
double stddev(std::span<const double> xs) noexcept;

/// Minimum / maximum; throw std::invalid_argument on an empty span (there is
/// no extremum to return, and silently dereferencing end() is UB).
double min_of(std::span<const double> xs);
double max_of(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0,100]. Copies and sorts internally.
double percentile(std::span<const double> xs, double p);

/// Empirical CDF sampled at the given probe points: for each probe x, the
/// fraction of samples <= x. Used to reproduce the paper's Fig. 1(c) CDF.
std::vector<double> empirical_cdf(std::span<const double> samples,
                                  std::span<const double> probes);

/// Index of the maximum element (first on ties); throws
/// std::invalid_argument on an empty span.
std::size_t argmax(std::span<const double> xs);

}  // namespace dcsr

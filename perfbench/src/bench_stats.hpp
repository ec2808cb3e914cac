// Sample statistics and process probes shared by the benchmark programs.
//
// Timings are reported as a median plus the highest percentile that has
// at least ten samples beyond it (tail_percentile), so a p90 is printed
// only once a class holds 100 samples.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds.
std::uint64_t now_ns();
/// Seconds between two now_ns() readings.
double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns);

/// Process user + system CPU seconds so far.
double process_cpu_seconds();
/// Process peak resident set (MB) so far.
double peak_rss_mb();

/// Median of `values` (mean of the middle pair for even sizes); 0 when
/// empty.
double median(std::vector<double> values);

/// Nearest-rank percentile: the value of rank ceil(p/100 * n) (1-based)
/// of the sorted samples; 0 when empty.
double percentile(std::vector<double> values, double p);

/// How many samples lie strictly beyond the nearest-rank p-th percentile
/// of `count` samples.
std::size_t samples_beyond(std::size_t count, double p);

/// The highest of {99.9, 99, 95, 90, 75, 50} with at least ten samples
/// beyond it, or 0 when not even the median has ten (fewer than 20
/// samples).
double tail_percentile(std::size_t count);

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default 'exclusive' method). Needs at least two values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

}  // namespace perfbench

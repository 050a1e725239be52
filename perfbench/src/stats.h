// Order statistics for the benchmark's reported numbers.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Median of `samples` (mean of the two middle values for even counts);
/// 0 when empty.
double median(std::vector<double> samples);

/// Arithmetic mean of `samples`; 0 when empty.
double mean(const std::vector<double>& samples);

/// The highest of p50, p90, p99, p99.9 and p99.99 that leaves at least
/// `min_beyond` of `n` samples above its nearest-rank position; 0 when even
/// p50 leaves fewer.
double highest_supported_percentile(size_t n, size_t min_beyond = 10);

/// Samples strictly above the nearest-rank position of percentile p.
size_t samples_beyond(size_t n, double p);

}  // namespace perfbench

#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile p among n samples, in [1, n]. The
// epsilon keeps p * n / 100 that is integral in exact arithmetic (99.9% of
// 10000) from rounding up a rank.
size_t nearest_rank(size_t n, double p) {
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t k = nearest_rank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) / static_cast<double>(samples.size());
}

size_t samples_beyond(size_t n, double p) { return n == 0 ? 0 : n - nearest_rank(n, p); }

double highest_supported_percentile(size_t n, size_t min_beyond) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

}  // namespace perfbench

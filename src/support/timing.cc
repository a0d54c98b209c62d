#include "src/support/timing.h"

#include <algorithm>
#include <cmath>

#include "src/support/check.h"

namespace icarus {

std::chrono::steady_clock::time_point DeadlineAfter(double seconds) {
  using Clock = std::chrono::steady_clock;
  using Seconds = std::chrono::duration<double>;
  const Clock::time_point now = Clock::now();
  // Compare in double before converting: the conversion is defined only for
  // tick counts the clock can hold. Half the clock's remaining range keeps
  // both the rounded tick count and now + ticks clear of the limit.
  const double headroom =
      Seconds(Clock::duration::max()).count() - Seconds(now.time_since_epoch()).count();
  if (!(seconds < headroom / 2)) {
    return Clock::time_point::max();
  }
  return now + std::chrono::duration_cast<Clock::duration>(Seconds(std::max(seconds, 0.0)));
}

double Percentile(const std::vector<double>& sorted_samples, double q) {
  if (sorted_samples.empty()) {
    return 0.0;
  }
  if (q <= 0.0) {
    return sorted_samples.front();
  }
  if (q >= 1.0) {
    return sorted_samples.back();
  }
  // Nearest-rank: ceil(q * n) - 1, clamped into range.
  size_t n = sorted_samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) {
    rank = 1;
  }
  if (rank > n) {
    rank = n;
  }
  return sorted_samples[rank - 1];
}

SampleStats ComputeStats(std::vector<double> samples) {
  SampleStats stats;
  // Empty-sample guard: every field stays 0; no division by n below.
  if (samples.empty()) {
    return stats;
  }
  std::sort(samples.begin(), samples.end());
  stats.min = samples.front();
  stats.max = samples.back();
  size_t n = samples.size();
  if (n % 2 == 1) {
    stats.median = samples[n / 2];
  } else {
    stats.median = (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  }
  double sum = 0.0;
  for (double s : samples) {
    sum += s;
  }
  stats.mean = sum / static_cast<double>(n);
  double var = 0.0;
  for (double s : samples) {
    var += (s - stats.mean) * (s - stats.mean);
  }
  // Sample standard deviation, matching how benchmark tables usually report σ.
  stats.stddev = (n > 1) ? std::sqrt(var / static_cast<double>(n - 1)) : 0.0;
  stats.p50 = Percentile(samples, 0.50);
  stats.p90 = Percentile(samples, 0.90);
  stats.p99 = Percentile(samples, 0.99);
  return stats;
}

}  // namespace icarus

// Wall-clock timing and the summary statistics used by the evaluation tables
// (mean, median, standard deviation over repeated runs).
#ifndef ICARUS_SUPPORT_TIMING_H_
#define ICARUS_SUPPORT_TIMING_H_

#include <chrono>
#include <vector>

namespace icarus {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}
  void Reset() { start_ = Clock::now(); }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// The steady-clock time point `seconds` from now, saturating: a value too
// large to represent (including +inf and NaN) yields time_point::max(), which
// never arrives, and a negative one yields now. Neither the double -> ticks
// conversion nor the addition can overflow.
std::chrono::steady_clock::time_point DeadlineAfter(double seconds);

// Summary statistics over a sample of measurements. All fields are 0 for an
// empty sample (ComputeStats never divides by a zero count).
struct SampleStats {
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  // Tail percentiles (nearest-rank over the sorted sample; for even counts
  // p50 is the lower middle element, while `median` interpolates).
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

SampleStats ComputeStats(std::vector<double> samples);

// Nearest-rank percentile of an ascending-sorted sample; `q` in [0, 1].
// Returns 0 for an empty sample rather than indexing out of bounds.
double Percentile(const std::vector<double>& sorted_samples, double q);

}  // namespace icarus

#endif  // ICARUS_SUPPORT_TIMING_H_

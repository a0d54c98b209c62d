// Parsed metric expositions: the reading half of the metrics registry.
//
// The registry (src/obs/metrics.h) renders Prometheus text; this module
// parses that text back into instruments and answers quantile queries
// against the parsed histograms, which share the registry's fixed log-scale
// bucket scheme.
//
// Consumer: `icarus top` (poll a daemon's `metrics` op payload and render
// p50/p99 latencies live).
#ifndef ICARUS_OBS_EXPOSITION_H_
#define ICARUS_OBS_EXPOSITION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"

namespace icarus::obs {

struct ExpositionScalar {
  std::string name;
  std::string help;
  double value = 0;
};

struct ExpositionHistogram {
  std::string name;
  std::string help;
  // Cumulative count per finite bucket of the shared scheme
  // (Histogram::kNumBuckets entries, bound i = 2^(i-20)); `count` is +Inf.
  std::vector<int64_t> cumulative;
  int64_t count = 0;
  double sum = 0;

  // Value at quantile q in [0, 1]: the upper bound of the first bucket whose
  // cumulative count reaches q * count, linearly interpolated within the
  // bucket. 0 when the histogram is empty.
  double Quantile(double q) const;
};

// One process's metric exposition.
struct Exposition {
  std::vector<ExpositionScalar> counters;
  std::vector<ExpositionScalar> gauges;
  std::vector<ExpositionHistogram> histograms;

  const ExpositionScalar* FindCounter(std::string_view name) const;
  const ExpositionScalar* FindGauge(std::string_view name) const;
  const ExpositionHistogram* FindHistogram(std::string_view name) const;
};

// Parses Prometheus text as rendered by Registry::RenderPrometheus. Unknown sample shapes (labels other than `le`)
// are an error — this is an internal exchange format, not a general scraper.
StatusOr<Exposition> ParsePrometheus(std::string_view text);

}  // namespace icarus::obs

#endif  // ICARUS_OBS_EXPOSITION_H_

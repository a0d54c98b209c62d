#include "bench.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

double LayerSamples::Median(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : perfbench::Median(it->second);
}

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::max(1.0, std::ceil(p / 100.0 * values.size())));
  return values[std::min(rank, values.size()) - 1];
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Timings::Time(const std::function<void()>& work) {
  int64_t cpu0 = ProcessCpuNs();
  int64_t t0 = WallNs();
  work();
  int64_t t1 = WallNs();
  int64_t cpu1 = ProcessCpuNs();
  wall_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  cpu_over_wall.push_back(t1 > t0 ? static_cast<double>(cpu1 - cpu0) / static_cast<double>(t1 - t0)
                                  : 1.0);
}

std::shared_ptr<void> TimeSetup(const SetupFn& setup, Result* result) {
  std::shared_ptr<void> built;
  result->setups.Time([&] { built = setup(); });
  return built;
}

void MeasurePasses(const Options& options, Tracer* tracer, Result* result,
                   const std::function<void()>& pass, const std::function<void()>& traced,
                   const SetupFn& setup) {
  const int64_t start = WallNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  const int64_t setup_every = static_cast<int64_t>(kSetupEverySeconds * 1e9);
  int64_t next_setup = start + setup_every;
  while (result->passes.wall_ms.size() < 5 || WallNs() < deadline) {
    int64_t before = result->ops;
    result->passes.Time(pass);
    result->window_ops += result->ops - before;
    if (options.trace) {
      // Alternating keeps both kinds of pass on the same host conditions, so
      // their difference is the tracing overhead.
      tracer->set_enabled(true);
      traced();
      tracer->set_enabled(false);
    }
    if (WallNs() >= next_setup) {
      TimeSetup(setup, result);
      next_setup += setup_every;
    }
  }
}

}  // namespace perfbench

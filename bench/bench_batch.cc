// Batch-driver speedup: the parallel, cache-enabled verification fleet vs.
// the serial driver, over every generator in the platform (Figure-12 set,
// extensions, and the buggy/fixed study pairs).
//
// Shape to check: verdicts are identical in every configuration (the batch
// driver is a scheduler, not a different verifier); wall-clock falls with
// jobs; the shared solver-result cache has a nonzero hit rate (generators
// sharing CacheIR prefixes and helpers share sub-queries) and contributes
// speedup on top of parallelism.
//
// Every configuration runs kSamples times and is reported by its median. The
// >=2x-at-4-jobs criterion applies only when the host actually grants the
// parallelism to reach it, as measured at start-up (MeasureParallelism), not
// as hardware_concurrency() claims: a container can report 4 cores and grant
// about one.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_baseline.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"
#include "src/verifier/batch_verifier.h"

namespace {

constexpr int kSamples = 5;

// Real parallelism for 4 threads: the same spin on one thread, then on four
// threads at once; 4 * t1 / t4 is about 4 with four free cores and about 1
// when only one core's worth of CPU is granted. Median of 3 rounds.
double MeasureParallelism() {
  auto spin = [] {
    volatile uint64_t x = 0;
    for (uint64_t i = 0; i < 20'000'000; ++i) {
      x = x + i;
    }
  };
  std::vector<double> ratios;
  for (int round = 0; round < 3; ++round) {
    icarus::WallTimer one;
    spin();
    double t1 = one.ElapsedSeconds();
    icarus::WallTimer four;
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back(spin);
    }
    for (std::thread& t : threads) {
      t.join();
    }
    ratios.push_back(4.0 * t1 / four.ElapsedSeconds());
  }
  return icarus::ComputeStats(ratios).median;
}

icarus::bench::BenchEntry Entry(const std::string& name, const std::vector<double>& ms) {
  icarus::SampleStats stats = icarus::ComputeStats(ms);
  return {name, stats.mean, stats.median, stats.stddev, static_cast<int>(ms.size())};
}

}  // namespace

// Usage: bench_batch [--json PATH]
// --json writes one {name, mean_ms, median_ms, stddev_ms, runs} entry per
// configuration over its kSamples runs.
int main(int argc, char** argv) {
  using icarus::platform::Platform;
  using icarus::verifier::BatchOptions;
  using icarus::verifier::BatchReport;
  using icarus::verifier::BatchVerifier;

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_batch [--json PATH]\n");
      return 1;
    }
  }
  auto loaded = Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "platform load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }
  std::unique_ptr<Platform> platform = loaded.take();
  BatchVerifier batch(platform.get());

  const int cores = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const double parallelism = MeasureParallelism();
  std::printf("Batch verification driver: serial vs. parallel+cache "
              "(%d hardware threads, measured parallelism %.2f at 4 threads)\n",
              cores, parallelism);
  std::printf("(every platform generator, including the 6 buggy/fixed study pairs;\n"
              " median wall of %d runs per configuration)\n\n",
              kSamples);

  // Serial baseline: one job, no cache — exactly the cost profile of looping
  // Verifier::Verify by hand.
  BatchOptions serial;
  serial.jobs = 1;
  serial.use_cache = false;
  BatchReport base;
  std::vector<double> base_ms;
  icarus::bench::Calibration calibration;  // One timing per sample.
  for (int sample = 0; sample < kSamples; ++sample) {
    calibration.Sample();
    base = batch.VerifyEverything(serial).take();
    base_ms.push_back(base.wall_seconds * 1e3);
  }
  std::vector<icarus::bench::BenchEntry> entries;
  entries.push_back(Entry("serial_1job_nocache", base_ms));
  const double base_median = entries.back().median_ms;
  std::printf("%-28s wall %7.3fs\n", "serial (1 job, no cache)", base_median / 1e3);

  struct Config {
    const char* label;
    int jobs;
    bool cache;
  };
  const Config configs[] = {
      {"1 job + cache", 1, true},
      {"2 jobs + cache", 2, true},
      {"4 jobs + cache", 4, true},
      {"8 jobs + cache", 8, true},
  };

  bool verdicts_match = true;
  double speedup_at_4 = 0.0;
  bool cache_hits_seen = false;
  for (const Config& config : configs) {
    BatchOptions options;
    options.jobs = config.jobs;
    options.use_cache = config.cache;
    BatchReport report;
    std::vector<double> ms;
    for (int sample = 0; sample < kSamples; ++sample) {
      calibration.Sample();
      report = batch.VerifyEverything(options).take();
      ms.push_back(report.wall_seconds * 1e3);
      for (size_t i = 0; i < report.results.size(); ++i) {
        if (report.results[i].outcome != base.results[i].outcome) {
          std::printf("  VERDICT MISMATCH: %s (%s vs %s serial)\n",
                      report.results[i].generator.c_str(),
                      OutcomeName(report.results[i].outcome),
                      OutcomeName(base.results[i].outcome));
          verdicts_match = false;
        }
      }
      cache_hits_seen = cache_hits_seen || report.cache.hits > 0;
    }
    entries.push_back(Entry(icarus::StrFormat("%djobs_cache", config.jobs), ms));
    double median = entries.back().median_ms;
    double speedup = median > 0 ? base_median / median : 0.0;
    std::printf("%-28s wall %7.3fs   speedup %5.2fx   %s\n", config.label, median / 1e3,
                speedup, report.cache.ToString().c_str());
    if (config.jobs == 4) {
      speedup_at_4 = speedup;
    }
  }

  std::printf("\nverdicts identical to serial across all configs: %s\n",
              verdicts_match ? "yes" : "NO");
  std::printf("cache hits observed: %s\n", cache_hits_seen ? "yes" : "NO");
  bool speedup_ok = speedup_at_4 >= 2.0;
  if (parallelism >= 3.0) {
    std::printf(">=2x speedup at 4 jobs: %s (%.2fx)\n", speedup_ok ? "yes" : "NO",
                speedup_at_4);
  } else {
    // The host grants too little parallelism for 4 jobs to reach 2x, whatever
    // it reports as its core count; the criterion is waived (verdict
    // determinism and cache behaviour are still enforced).
    std::printf(">=2x speedup at 4 jobs: waived (measured parallelism %.2f < 3)\n",
                parallelism);
    speedup_ok = true;
  }
  if (!json_path.empty()) {
    icarus::Status st = icarus::bench::WriteBenchJson(json_path, "bench_batch", entries, calibration);
    if (!st.ok()) {
      std::fprintf(stderr, "--json: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  return verdicts_match && speedup_ok && cache_hits_seen ? 0 : 1;
}

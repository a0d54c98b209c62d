// bench_compare — the perf-regression gate behind the `bench-check` ctest
// target.
//
// Compares a current bench JSON (emitted by a bench binary's --json flag)
// against a checked-in baseline (bench/baselines/*.json) and fails when any
// entry's time exceeds the baseline by more than the threshold. The
// comparison itself lives in bench/bench_baseline.{h,cc}; this binary is
// the thin CLI over it.
//
// Usage: bench_compare --baseline FILE --current FILE [--threshold PCT]
//                      [--scale F]
//   --threshold PCT  Regression tolerance in percent (default: 50). CI uses a
//                    generous value because shared runners are noisy; the
//                    gate is for order-of-magnitude slips, not 5% jitter.
//   --scale F        Multiply every current-run time by F before comparing.
//                    A drill knob: `--scale 2` simulates a 2x slowdown and
//                    must fail the gate (tests assert this).
//
// Exit codes: 0 = within threshold, 1 = regression detected, 2 = usage or
// unreadable/malformed input.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_baseline.h"

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double threshold_pct = 50.0;
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--current") == 0 && i + 1 < argc) {
      current_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold_pct = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_compare --baseline FILE --current FILE "
                   "[--threshold PCT] [--scale F]\n");
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr, "bench_compare: --baseline and --current are required\n");
    return 2;
  }
  auto baseline = icarus::bench::ReadBenchJsonFile(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s\n", baseline.status().message().c_str());
    return 2;
  }
  auto current = icarus::bench::ReadBenchJsonFile(current_path);
  if (!current.ok()) {
    std::fprintf(stderr, "%s\n", current.status().message().c_str());
    return 2;
  }
  if (scale != 1.0) {
    for (icarus::bench::BenchEntry& e : current.value().entries) {
      e.mean_ms *= scale;
      e.median_ms *= scale;
    }
    std::printf("(current-run times scaled by %g for drill purposes)\n", scale);
  }
  icarus::bench::BenchComparison cmp =
      icarus::bench::CompareBenchRuns(baseline.value(), current.value(), threshold_pct);
  std::printf("baseline: %s\ncurrent:  %s\n\n%s", baseline_path.c_str(), current_path.c_str(),
              cmp.Render().c_str());
  return cmp.regressed ? 1 : 0;
}

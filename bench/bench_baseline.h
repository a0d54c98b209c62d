// Bench result files and the regression comparison over them.
//
// The bench binaries emit machine-readable results via `--json`
// (WriteBenchJson below). This module also reads those files back and
// compares a current run against a checked-in baseline
// (bench/baselines/*.json), flagging any entry whose time regressed by more
// than a configurable threshold. `bench_compare` wraps it as a CLI and the
// `bench-check` ctest target wires it into CI — the repo's perf trajectory
// gate (ROADMAP "perf trajectory").
//
// Comparison is on median_ms (robust to a noisy outlier run on a loaded
// machine), falling back to mean_ms for single-run benches that report no
// median. Entries only in the current run ("added") or only in the baseline
// ("removed") are reported but are not regressions: benches evolve.
#ifndef ICARUS_BENCH_BENCH_BASELINE_H_
#define ICARUS_BENCH_BENCH_BASELINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"

namespace icarus::bench {

// One row of a machine-readable benchmark result (the `--json` flag of the
// bench binaries): name plus summary statistics in milliseconds.
struct BenchEntry {
  std::string name;
  double mean_ms = 0.0;
  double median_ms = 0.0;
  double stddev_ms = 0.0;
  int runs = 0;
};

// Writes `{"bench": <bench_name>, "entries": [{name, mean_ms, median_ms,
// stddev_ms, runs}, ...]}` to `path`. The seed format for BENCH_*.json perf
// trajectories: append-friendly, diffable, one file per bench run.
Status WriteBenchJson(const std::string& path, std::string_view bench_name,
                      const std::vector<BenchEntry>& entries);

// One parsed bench result file.
struct BenchRun {
  std::string bench;  // Bench binary name, e.g. "bench_fig12".
  std::vector<BenchEntry> entries;
};

// Parses the exact shape WriteBenchJson emits:
//   {"bench": <name>, "entries": [{"name", "mean_ms", "median_ms",
//    "stddev_ms", "runs"}, ...]}
// Unknown keys inside an entry are skipped (additive evolution, like the
// journal); structural errors are reported with context.
StatusOr<BenchRun> ParseBenchJson(std::string_view text);

// Reads and parses a bench JSON file.
StatusOr<BenchRun> ReadBenchJsonFile(const std::string& path);

// Per-entry comparison outcome.
struct BenchDelta {
  std::string name;
  double baseline_ms = 0.0;
  double current_ms = 0.0;
  double delta_pct = 0.0;  // (current - baseline) / baseline * 100.
  bool regressed = false;  // Over both the threshold and the noise floor.
};

// Result of comparing a current run against a baseline.
struct BenchComparison {
  double threshold_pct = 0.0;
  std::vector<BenchDelta> deltas;        // Entries present in both runs.
  std::vector<std::string> added;        // Only in the current run.
  std::vector<std::string> removed;      // Only in the baseline.
  bool regressed = false;                // Any delta over threshold.

  // Multi-line human-readable table with a PASS/FAIL verdict footer.
  std::string Render() const;
};

// Compares entry-by-entry (matched by name). An entry regresses when its
// time exceeds the baseline by more than `threshold_pct` percent AND by
// more than `noise_floor_ms` absolute. The floor keeps microsecond-scale
// entries (a warm solver answers some whole generators in tens of
// microseconds) from flagging on scheduler jitter that is large relative
// to the entry but far below anything a human would call a regression. A
// baseline time of 0 (degenerate) never flags, to avoid division blow-ups
// on sub-resolution timings.
BenchComparison CompareBenchRuns(const BenchRun& baseline, const BenchRun& current,
                                 double threshold_pct, double noise_floor_ms = 0.25);

}  // namespace icarus::bench

#endif  // ICARUS_BENCH_BENCH_BASELINE_H_

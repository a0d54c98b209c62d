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
//
// A shared host's speed drifts by minutes, so a millisecond recorded on one
// day says little about another. Every bench therefore also records a
// calibration: the median time of one fixed CPU-bound kernel
// (Calibration::Sample), timed between the bench's own samples. When both
// runs carry one, each entry is compared as a ratio to its own run's
// calibration.
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

// The host calibration of one bench run: timings of a fixed CPU-bound
// kernel, taken between the bench's own samples so that both see the same
// host.
class Calibration {
 public:
  // Times one run of the kernel (about a millisecond) and keeps it.
  void Sample();
  // Median of the kept timings, in ms; 0 with none.
  double median_ms() const;
  int samples() const { return static_cast<int>(ms_.size()); }

 private:
  std::vector<double> ms_;
};

// CPU seconds this process has used so far, on all of its threads
// (CLOCK_PROCESS_CPUTIME_ID). A few milliseconds of wall clock read several
// times longer whenever the host takes the CPU away; CPU time does not see
// that, so the gated benches time their requests and runs with it.
double ProcessCpuSeconds();

// A run's calibration needs at least this many kernel timings.
inline constexpr int kMinCalibrationSamples = 5;

// Writes `{"bench": <bench_name>, "calibration_ms": <median>,
// "calibration_runs": <n>, "entries": [{name, mean_ms, median_ms, stddev_ms,
// runs}, ...]}` to `path`. The seed format for BENCH_*.json perf
// trajectories: append-friendly, diffable, one file per bench run. Fails
// when `calibration` holds fewer than kMinCalibrationSamples timings.
Status WriteBenchJson(const std::string& path, std::string_view bench_name,
                      const std::vector<BenchEntry>& entries, const Calibration& calibration);

// One parsed bench result file.
struct BenchRun {
  std::string bench;  // Bench binary name, e.g. "bench_fig12".
  std::vector<BenchEntry> entries;
  double calibration_ms = 0.0;  // 0: the run carries no calibration.
};

// Parses the exact shape WriteBenchJson emits:
//   {"bench": <name>, "calibration_ms": <ms>, "calibration_runs": <n>,
//    "entries": [{"name", "mean_ms", "median_ms", "stddev_ms", "runs"}, ...]}
// The calibration keys are optional (older files lack them). Unknown keys
// are skipped (additive evolution, like the journal); structural errors are
// reported with context.
StatusOr<BenchRun> ParseBenchJson(std::string_view text);

// Reads and parses a bench JSON file.
StatusOr<BenchRun> ReadBenchJsonFile(const std::string& path);

// Per-entry comparison outcome.
struct BenchDelta {
  std::string name;
  double baseline_ms = 0.0;
  double current_ms = 0.0;  // As measured.
  double delta_pct = 0.0;   // (current * scale - baseline) / baseline * 100.
  bool regressed = false;  // Over both the threshold and the noise floor.
};

// Result of comparing a current run against a baseline.
struct BenchComparison {
  double threshold_pct = 0.0;
  // Baseline calibration over current calibration when both runs carry one
  // (current times are multiplied by it: the host speed of the baseline's
  // run), else 1.
  double scale = 1.0;
  bool calibrated = false;
  std::vector<BenchDelta> deltas;        // Entries present in both runs.
  std::vector<std::string> added;        // Only in the current run.
  std::vector<std::string> removed;      // Only in the baseline.
  bool regressed = false;                // Any delta over threshold.

  // Multi-line human-readable table with a PASS/FAIL verdict footer.
  std::string Render() const;
};

// Compares entry-by-entry (matched by name). When both runs carry a
// calibration, each current time is first rescaled to the baseline run's
// host speed (times baseline calibration over current calibration). An
// entry regresses when its time exceeds the baseline by more than
// `threshold_pct` percent AND by more than `noise_floor_ms` absolute. The floor keeps microsecond-scale
// entries (a warm solver answers some whole generators in tens of
// microseconds) from flagging on scheduler jitter that is large relative
// to the entry but far below anything a human would call a regression. A
// baseline time of 0 (degenerate) never flags, to avoid division blow-ups
// on sub-resolution timings.
BenchComparison CompareBenchRuns(const BenchRun& baseline, const BenchRun& current,
                                 double threshold_pct, double noise_floor_ms = 0.25);

}  // namespace icarus::bench

#endif  // ICARUS_BENCH_BENCH_BASELINE_H_

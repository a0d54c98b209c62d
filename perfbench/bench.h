// Shared pieces of the repository benchmark (perfbench): run options, the
// per-run result every workload fills, clocks, statistics and the seeded RNG.
//
// A run is one workload at one seed: set up (several times, the median is
// reported), one warm-up pass, then passes until the time budget is spent.
// With tracing off only end-to-end numbers are taken; a traced run alternates
// untraced and traced passes and reports the per-layer metrics (see
// README.md for the metric table).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".perfbench_out";  // Results, spans, scratch stores.
};

// Per-pass samples of named per-layer values; the reported figure is the
// median over passes.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) { samples_[name].push_back(value); }
  double Median(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// Wall and process-CPU time of repeated work.
struct Timings {
  std::vector<double> wall_ms;
  std::vector<double> cpu_over_wall;  // Process CPU / wall of each sample.

  // Runs `work` once and records it.
  void Time(const std::function<void()>& work);
};

struct Result {
  // Operation accounting over everything the run did (set-up, warm-up and
  // traced passes included).
  int64_t ops = 0;
  int64_t window_ops = 0;     // Operations of the untraced, timed passes.
  int64_t failed_ops = 0;     // ERROR / INTERNAL_ERROR / INCONCLUSIVE / raised.
  int64_t wrong_outputs = 0;  // Outputs that differ from the known answer.
  Timings setups;       // One sample per set-up repetition.
  Timings passes;       // Untraced passes.
  LayerSamples layers;  // Traced runs only.
  // Workload parameters and why they were chosen, recorded with the result.
  std::vector<std::pair<std::string, std::string>> params;
};

// --- Clocks -----------------------------------------------------------------

int64_t WallNs();
int64_t ProcessCpuNs();

// --- Statistics -------------------------------------------------------------

double Median(std::vector<double> values);
// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

// --- Seeded RNG (SplitMix64: same seed, same stream, on every toolchain) ----

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  int Range(int lo, int hi) { return lo + static_cast<int>(Below(static_cast<uint64_t>(hi - lo + 1))); }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

// --- Passes -----------------------------------------------------------------

// Builds from scratch what the workload's passes need; the returned object
// keeps it alive (and may be empty when the passes own their state).
using SetupFn = std::function<std::shared_ptr<void>()>;

// Times one `setup` into result->setups and returns what it built.
std::shared_ptr<void> TimeSetup(const SetupFn& setup, Result* result);

// Repeats `pass` for options.seconds (at least 5 times), recording each into
// result->passes; in a traced run each untraced pass alternates with a
// `traced` pass run with the tracer on. Every kSetupEverySeconds it also
// times one more `setup` between passes and drops what it built, untimed,
// so set-up time is sampled over the whole run as pass time is, not only in
// the run's first moments.
inline constexpr double kSetupEverySeconds = 1.0;
void MeasurePasses(const Options& options, Tracer* tracer, Result* result,
                   const std::function<void()>& pass, const std::function<void()>& traced,
                   const SetupFn& setup);

// Traced: one Platform::Load, then its split into Parser::ParseInto over the
// platform's source chunks and ast::Resolve. Records platform.load_ms,
// ast.parse_ms and ast.resolve_ms.
void TracePlatformLoad(Tracer* tracer, Result* result);

// --- Workloads ----------------------------------------------------------------

// Each returns false on a pipeline error it cannot continue past (reported on
// stderr); wrong verdicts and results are counted, never fatal.
bool RunVerifyCold(const Options& options, Tracer* tracer, Result* result);
bool RunVerifyIncremental(const Options& options, Tracer* tracer, Result* result);
bool RunVmHotLoop(const Options& options, Tracer* tracer, Result* result);
bool RunVmFreshCode(const Options& options, Tracer* tracer, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

// Incremental verification speedup: a cold `verify-all --incremental` run
// (empty persistent stores) vs. a warm run over the unchanged fleet.
//
// Shape to check: the cold run verifies everything for real and populates
// the stores; the warm run must skip every generator as CACHED_SAFE without
// a single solver dispatch — its cost is fingerprinting plus two file reads —
// and come in at least 5x faster than the cold run. The fleet is the
// Figure-12 set plus extensions (all verifiable); the buggy study pairs are
// excluded because refutations are deliberately never stored (re-running
// them keeps counterexample reporting live), so they would re-verify on
// every run by design.
//
// One sample is a cold run on freshly emptied stores followed by a warm run;
// the bench takes kSamples of them, gates every sample, and reports medians.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_baseline.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/verdict_store.h"

namespace {

constexpr int kSamples = 5;

}  // namespace

// Usage: bench_incremental [--json PATH] [--cache-dir DIR]
// --json writes one {name, mean_ms, median_ms, stddev_ms, runs} entry per
// phase over its kSamples runs.
int main(int argc, char** argv) {
  using icarus::platform::Platform;
  using icarus::verifier::BatchOptions;
  using icarus::verifier::BatchReport;
  using icarus::verifier::BatchVerifier;
  using icarus::verifier::Outcome;

  std::string json_path;
  std::string cache_dir = ".bench-incremental-cache";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
      cache_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_incremental [--json PATH] [--cache-dir DIR]\n");
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

  // The verifiable fleet: Figure-12 generators plus extensions.
  std::vector<std::string> fleet;
  for (const auto& info : icarus::platform::Fig12Generators()) {
    fleet.push_back(info.function);
  }
  for (const auto& info : icarus::platform::ExtensionGenerators()) {
    fleet.push_back(info.function);
  }

  BatchOptions options;
  options.incremental = true;
  options.cache_dir = cache_dir;

  std::printf("Incremental verification: cold vs. warm over %zu generators "
              "(median of %d samples)\n\n",
              fleet.size(), kSamples);

  // Gates, checked on every sample. The cold fleet must fully verify
  // (otherwise the warm numbers are about a different workload), the warm
  // run must be 100% CACHED_SAFE with zero solver dispatches, and the skip
  // must be worth at least 5x on the medians.
  bool cold_ok = true;
  bool warm_all_cached = true;
  bool warm_no_solving = true;
  std::vector<double> cold_s;
  std::vector<double> warm_s;
  for (int sample = 0; sample < kSamples; ++sample) {
    // Start genuinely cold: drop any store a previous run left behind.
    std::remove(icarus::verifier::VerdictStorePath(cache_dir).c_str());
    std::remove(icarus::verifier::SolverCacheStorePath(cache_dir).c_str());

    BatchReport cold = batch.VerifyAll(fleet, options).take();
    BatchReport warm = batch.VerifyAll(fleet, options).take();
    cold_s.push_back(cold.wall_seconds);
    warm_s.push_back(warm.wall_seconds);
    cold_ok = cold_ok && cold.NumWithOutcome(Outcome::kVerified) == static_cast<int>(fleet.size());
    warm_all_cached = warm_all_cached &&
                      warm.NumWithOutcome(Outcome::kCachedSafe) == static_cast<int>(fleet.size());
    warm_no_solving = warm_no_solving && warm.cache.lookups() == 0;
    for (const BatchReport* report : {&cold, &warm}) {
      for (const std::string& note : report->notes) {
        std::printf("  note: %s\n", note.c_str());
      }
    }
  }
  double cold_median = icarus::ComputeStats(cold_s).median;
  double warm_median = icarus::ComputeStats(warm_s).median;
  double speedup = warm_median > 0 ? cold_median / warm_median : 0.0;
  bool speedup_ok = warm_median == 0.0 || speedup >= 5.0;
  std::printf("%-24s wall %7.3fs\n", "cold (empty stores)", cold_median);
  std::printf("%-24s wall %7.3fs   speedup %5.1fx\n", "warm (unchanged fleet)", warm_median,
              speedup);

  std::printf("\ncold run fully verified: %s\n", cold_ok ? "yes" : "NO");
  std::printf("warm run 100%% CACHED_SAFE: %s\n", warm_all_cached ? "yes" : "NO");
  std::printf("warm run dispatched zero solver queries: %s\n", warm_no_solving ? "yes" : "NO");
  std::printf(">=5x cold/warm speedup: %s\n", speedup_ok ? "yes" : "NO");

  if (!json_path.empty()) {
    // JSON times are floored at 1ms: the warm run completes in microseconds,
    // where scheduler jitter dwarfs any percent threshold the regression gate
    // could apply. The >=5x speedup gate above runs on the unclamped numbers.
    auto entry = [](const char* name, const std::vector<double>& seconds) {
      std::vector<double> ms;
      for (double s : seconds) {
        ms.push_back(s * 1e3 < 1.0 ? 1.0 : s * 1e3);
      }
      icarus::SampleStats stats = icarus::ComputeStats(ms);
      return icarus::bench::BenchEntry{name, stats.mean, stats.median, stats.stddev,
                                     static_cast<int>(ms.size())};
    };
    std::vector<icarus::bench::BenchEntry> entries;
    entries.push_back(entry("cold_incremental", cold_s));
    entries.push_back(entry("warm_incremental", warm_s));
    icarus::Status st = icarus::bench::WriteBenchJson(json_path, "bench_incremental", entries);
    if (!st.ok()) {
      std::fprintf(stderr, "--json: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  return cold_ok && warm_all_cached && warm_no_solving && speedup_ok ? 0 : 1;
}

// Figure 12 reproduction: the 21 ported CacheIR code-generators with their
// total Icarus LoC and verification times (mean and σ over repeated runs).
//
// Two timings per generator: the warm passes of one executor, whose
// persistent solver answers most queries from what earlier passes learned,
// and the cold pass, the first Run on a fresh executor, which pays the
// solver's full cost as `icarus verify` does.
//
// Paper shape to check: every generator verifies; most in single-digit
// seconds on the authors' laptop (our from-scratch solver and native
// meta-execution are much faster in absolute terms — the comparison is the
// relative ordering and the universal success, not wall-clock parity).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_baseline.h"
#include "src/meta/meta_executor.h"
#include "src/platform/platform.h"
#include "src/support/timing.h"

// Usage: bench_fig12 [--json PATH]
// --json writes two {name, mean_ms, median_ms, stddev_ms, runs} entries per
// generator for machine consumption (regression tracking across commits):
// `<generator>` for the warm passes and `<generator>/cold` for the cold one.
int main(int argc, char** argv) {
  using icarus::platform::Platform;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_fig12 [--json PATH]\n");
      return 1;
    }
  }
  auto loaded = Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "platform load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }
  std::unique_ptr<Platform> platform = loaded.take();

  std::printf("Figure 12: CacheIR code-generators ported into Icarus and verified\n");
  std::printf("(10 warm runs per generator; cold: median first run of 5 fresh executors; "
              "times in seconds)\n\n");
  std::printf("%-22s %-22s %9s %10s %10s %10s %10s %8s\n", "Operation", "Code Generator",
              "Total LOC", "Mean (s)", "P90 (s)", "Sigma (s)", "Cold (s)", "Verdict");
  std::printf("%s\n", std::string(108, '-').c_str());

  constexpr int kRuns = 10;
  constexpr int kColdRuns = 5;
  bool all_verified = true;
  std::vector<icarus::bench::BenchEntry> entries;
  icarus::bench::Calibration calibration;  // Timed after each warm and each cold batch.
  for (const auto& info : icarus::platform::Fig12Generators()) {
    auto stub = platform->MakeMetaStub(info.function);
    if (!stub.ok()) {
      std::fprintf(stderr, "%s: %s\n", info.function, stub.status().message().c_str());
      return 1;
    }
    // kRuns meta-execution passes on one executor: its persistent solver
    // stays warm across them, and only the passes are timed.
    icarus::meta::MetaExecutor executor(&platform->module(), &platform->externs());
    icarus::meta::MetaResult result;
    std::vector<double> samples;
    for (int run = 0; run < kRuns; ++run) {
      result = executor.Run(stub.value());
      samples.push_back(result.seconds);
    }
    calibration.Sample();
    // The first pass of kColdRuns fresh executors.
    std::vector<double> cold_samples;
    for (int run = 0; run < kColdRuns; ++run) {
      icarus::meta::MetaExecutor fresh(&platform->module(), &platform->externs());
      icarus::meta::MetaResult cold = fresh.Run(stub.value());
      all_verified = all_verified && cold.verified;
      cold_samples.push_back(cold.seconds);
    }
    calibration.Sample();
    icarus::SampleStats timing = icarus::ComputeStats(std::move(samples));
    icarus::SampleStats cold = icarus::ComputeStats(std::move(cold_samples));
    all_verified = all_verified && result.verified;
    std::printf("%-22s %-22s %9d %10.4f %10.4f %10.4f %10.4f %8s\n", info.operation, info.name,
                platform->TotalLoc(info.function), timing.mean, timing.p90, timing.stddev,
                cold.median, result.verified ? "OK" : "FAIL");
    entries.push_back({info.function, timing.mean * 1e3, timing.median * 1e3,
                       timing.stddev * 1e3, kRuns});
    entries.push_back({std::string(info.function) + "/cold", cold.mean * 1e3, cold.median * 1e3,
                       cold.stddev * 1e3, kColdRuns});
  }
  std::printf("\nAll 21 generators verified: %s\n", all_verified ? "yes" : "NO");
  std::printf("(paper: all 21 verify, in under a minute each, typically under 4s)\n");
  if (!json_path.empty()) {
    icarus::Status st = icarus::bench::WriteBenchJson(json_path, "bench_fig12", entries, calibration);
    if (!st.ok()) {
      std::fprintf(stderr, "--json: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  return all_verified ? 0 : 1;
}

// Warm daemon service vs. cold per-request verification.
//
// The case for `icarusd` in numbers: a cold one-shot `icarus verify GEN`
// pays platform interpretation, meta-execution, and solver time on every
// request, while a long-lived daemon answers repeats from its warm verdict
// view in memory. This bench measures per-request latency distributions
// (p50/p99) for both shapes over the verifiable fleet:
//
//   cold_per_request   a fresh Verifier + empty solver cache per request,
//                      the work a cold CLI process performs (process startup
//                      and platform load excluded — so the daemon's measured
//                      advantage here is a *lower bound* on the real one).
//   daemon_first_pass  ServerCore::Execute with an empty warm view: the
//                      daemon's worst case, shared solver cache only.
//   daemon_warm        ServerCore::Execute once every verdict is warm — the
//                      steady state a CI fleet actually sees.
//
// Gates: every daemon verdict must match its cold counterpart, the warm
// pass must be 100% served from the warm view, and warm p99 must beat the
// cold p50 — the daemon's tail must be faster than the CLI's median.
//
// The JSON also carries each pass's total (`cold_total`,
// `daemon_first_pass_total`: the sum of its per-request times). A request's
// median and the warm entries sit under bench_check's 1 ms floor, so the
// totals are what a slower verify path or serving path moves.
//
// Each request is timed in process CPU time, as bench_incremental times its
// runs: a request takes a few milliseconds, and one that the host preempts
// reads tens of times longer in wall-clock time, which used to set cold p99
// on its own.
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_baseline.h"
#include "src/daemon/protocol.h"
#include "src/daemon/server.h"
#include "src/platform/platform.h"
#include "src/support/timing.h"
#include "src/sym/solver_cache.h"
#include "src/verifier/verifier.h"

namespace {

icarus::daemon::Request VerifyRequest(const std::string& generator) {
  icarus::daemon::Request req;
  req.op = icarus::daemon::kOpVerify;
  req.generator = generator;
  return req;
}

}  // namespace

// Usage: bench_daemon [--json PATH] [--rounds N]
int main(int argc, char** argv) {
  using icarus::ComputeStats;
  using icarus::SampleStats;
  using icarus::bench::ProcessCpuSeconds;
  using icarus::platform::Platform;

  std::string json_path;
  int rounds = 8;  // Warm passes over the fleet (more samples for the tail).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: bench_daemon [--json PATH] [--rounds N]\n");
      return 1;
    }
  }

  auto loaded = Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "platform load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }
  std::unique_ptr<Platform> platform = loaded.take();

  std::vector<std::string> fleet;
  for (const auto& info : icarus::platform::Fig12Generators()) {
    fleet.push_back(info.function);
  }
  for (const auto& info : icarus::platform::ExtensionGenerators()) {
    fleet.push_back(info.function);
  }

  std::printf("Daemon service vs. cold per-request verification, %zu generators\n\n",
              fleet.size());

  // Cold shape: what each one-shot CLI invocation does after startup — a
  // fresh verifier and a fresh (empty) solver cache per request.
  std::vector<double> cold_ms;
  std::vector<std::string> cold_outcomes;
  icarus::bench::Calibration calibration;  // One timing per cold request.
  for (const std::string& name : fleet) {
    calibration.Sample();
    icarus::sym::SolverCache cache;
    icarus::verifier::VerifyOptions vopts;
    vopts.solver_cache = &cache;
    icarus::verifier::Verifier verifier(platform.get());
    const double start = ProcessCpuSeconds();
    auto report = verifier.Verify(name, vopts);
    cold_ms.push_back((ProcessCpuSeconds() - start) * 1e3);
    if (!report.ok()) {
      std::fprintf(stderr, "cold verify %s failed: %s\n", name.c_str(),
                   report.status().message().c_str());
      return 1;
    }
    cold_outcomes.push_back(!report.value().meta.violations.empty() ? "COUNTEREXAMPLE"
                            : report.value().inconclusive           ? "INCONCLUSIVE"
                                                                    : "VERIFIED");
  }

  // Daemon shapes: one core, first pass fills the warm view, later rounds
  // are served from it.
  icarus::daemon::DaemonOptions options;
  options.jobs = 1;
  icarus::daemon::ServerCore core(platform.get(), options);
  icarus::Status started = core.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "daemon start failed: %s\n", started.message().c_str());
    return 1;
  }

  std::vector<double> first_ms;
  bool verdicts_match = true;
  for (size_t i = 0; i < fleet.size(); ++i) {
    const double start = ProcessCpuSeconds();
    icarus::daemon::Response resp = core.Execute(VerifyRequest(fleet[i]));
    first_ms.push_back((ProcessCpuSeconds() - start) * 1e3);
    if (resp.outcome != cold_outcomes[i]) {
      std::fprintf(stderr, "verdict mismatch for %s: cold %s vs daemon %s\n", fleet[i].c_str(),
                   cold_outcomes[i].c_str(), resp.outcome.c_str());
      verdicts_match = false;
    }
  }

  std::vector<double> warm_ms;
  bool all_warm = true;
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < fleet.size(); ++i) {
      const double start = ProcessCpuSeconds();
      icarus::daemon::Response resp = core.Execute(VerifyRequest(fleet[i]));
      warm_ms.push_back((ProcessCpuSeconds() - start) * 1e3);
      all_warm = all_warm && resp.cached && resp.outcome == cold_outcomes[i];
    }
  }
  (void)core.FinishDrain();

  SampleStats cold = ComputeStats(cold_ms);
  SampleStats first = ComputeStats(first_ms);
  SampleStats warm = ComputeStats(warm_ms);
  std::printf("%-20s %10s %10s %10s %10s\n", "shape", "p50 ms", "p90 ms", "p99 ms", "mean ms");
  auto row = [](const char* name, const SampleStats& s) {
    std::printf("%-20s %10.4f %10.4f %10.4f %10.4f\n", name, s.p50, s.p90, s.p99, s.mean);
  };
  row("cold_per_request", cold);
  row("daemon_first_pass", first);
  row("daemon_warm", warm);

  // Gates.
  bool warm_all_cached = all_warm;
  bool tail_beats_cold_median = warm.p99 < cold.p50;
  std::printf("\ndaemon verdicts match cold verdicts: %s\n", verdicts_match ? "yes" : "NO");
  std::printf("warm pass 100%% served from the warm view: %s\n", warm_all_cached ? "yes" : "NO");
  std::printf("warm p99 (%.4f ms) beats cold p50 (%.4f ms): %s\n", warm.p99, cold.p50,
              tail_beats_cold_median ? "yes" : "NO");

  if (!json_path.empty()) {
    // Floored at 1ms, as in bench_incremental: warm requests complete in
    // microseconds, where scheduler jitter dwarfs any percentage threshold.
    // The warm-beats-cold gate above runs on the unclamped numbers.
    auto clamped = [](double ms) { return ms < 1.0 ? 1.0 : ms; };
    std::vector<icarus::bench::BenchEntry> entries;
    entries.push_back({"cold_p50", clamped(cold.p50), clamped(cold.p50), 0.0,
                       static_cast<int>(cold_ms.size())});
    entries.push_back({"cold_p99", clamped(cold.p99), clamped(cold.p99), 0.0,
                       static_cast<int>(cold_ms.size())});
    entries.push_back({"daemon_warm_p50", clamped(warm.p50), clamped(warm.p50), 0.0,
                       static_cast<int>(warm_ms.size())});
    entries.push_back({"daemon_warm_p99", clamped(warm.p99), clamped(warm.p99), 0.0,
                       static_cast<int>(warm_ms.size())});
    const double cold_total = std::accumulate(cold_ms.begin(), cold_ms.end(), 0.0);
    const double first_total = std::accumulate(first_ms.begin(), first_ms.end(), 0.0);
    entries.push_back(
        {"cold_total", cold_total, cold_total, 0.0, static_cast<int>(cold_ms.size())});
    entries.push_back({"daemon_first_pass_total", first_total, first_total, 0.0,
                       static_cast<int>(first_ms.size())});
    icarus::Status st = icarus::bench::WriteBenchJson(json_path, "bench_daemon", entries, calibration);
    if (!st.ok()) {
      std::fprintf(stderr, "--json: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  return verdicts_match && warm_all_cached && tail_beats_cold_median ? 0 : 1;
}

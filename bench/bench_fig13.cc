// Figure 13 reproduction: engine performance with Icarus-generated IC stubs
// vs the stock (hand-written) IC implementation.
//
// The paper swaps its extracted C++ into Firefox and runs the five bundled
// JS suites, finding no performance difference. Here the host engine is the
// mini-JS VM (DESIGN.md §3): the "ICARUS" arm attaches stubs by running the
// verified generators and executes them with the native stub engine; the
// "No ICARUS" arm uses the hand-written C++ ICs a stock engine would have.
// The claim under test is parity. A no-IC (slow path only) column is
// included for reference to show the ICs are actually doing the work.

#include <cstdio>
#include <memory>

#include "src/support/timing.h"
#include "src/vm/interp.h"
#include "src/vm/workloads.h"

namespace {

struct Arm {
  icarus::SampleStats stats;
  icarus::vm::InterpStats interp;
  uint64_t result = 0;
};

Arm Measure(icarus::vm::IcStrategy strategy, icarus::vm::IcCompiler* compiler, int index,
            int iterations, int runs) {
  Arm arm;
  std::vector<double> samples;
  // Fresh runtime+interpreter per arm; stubs warm up on run 0 and serve the
  // timed runs, like a warmed-up engine.
  auto workloads = icarus::vm::BuildWorkloads(iterations);
  icarus::vm::Workload& w = workloads[static_cast<size_t>(index)];
  icarus::vm::Interpreter interp(w.runtime.get(), compiler, strategy);
  arm.result = interp.Run(w.program).raw();  // Warm-up (attaches stubs).
  for (int r = 0; r < runs; ++r) {
    icarus::WallTimer timer;
    uint64_t result = interp.Run(w.program).raw();
    samples.push_back(timer.ElapsedMillis());
    if (result != arm.result) {
      std::fprintf(stderr, "non-deterministic workload result!\n");
    }
  }
  arm.stats = icarus::ComputeStats(std::move(samples));
  arm.interp = interp.stats();
  return arm;
}

}  // namespace

int main() {
  auto loaded = icarus::platform::Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "platform load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }
  std::unique_ptr<icarus::platform::Platform> platform = loaded.take();
  icarus::vm::IcCompiler compiler(platform.get());

  constexpr int kTrips = 300000;
  constexpr int kRuns = 10;

  std::printf("Figure 13: JS benchmark analogues, ICARUS-generated ICs vs stock engine\n");
  std::printf("(mini-JS VM host; ms per run, lower is better; %d runs after warm-up)\n\n",
              kRuns);
  std::printf("%-12s %13s %9s  %13s %9s  %10s %9s %7s\n", "Benchmark", "ICARUS mean",
              "sigma", "stock mean", "sigma", "ratio", "no-IC", "match");
  std::printf("%s\n", std::string(92, '-').c_str());

  const char* names[5] = {"ARES-6", "Octane", "Six Speed", "Sunspider", "Web Tooling"};
  bool all_match = true;
  double worst_ratio = 0;
  for (int i = 0; i < 5; ++i) {
    Arm icarus_arm =
        Measure(icarus::vm::IcStrategy::kIcarus, &compiler, i, kTrips, kRuns);
    Arm native_arm = Measure(icarus::vm::IcStrategy::kNative, nullptr, i, kTrips, kRuns);
    Arm none_arm = Measure(icarus::vm::IcStrategy::kNone, nullptr, i, kTrips, kRuns);
    bool match = icarus_arm.result == native_arm.result && icarus_arm.result == none_arm.result;
    all_match = all_match && match;
    double ratio = icarus_arm.stats.mean / native_arm.stats.mean;
    worst_ratio = std::max(worst_ratio, ratio);
    std::printf("%-12s %13.2f %9.3f  %13.2f %9.3f  %9.2fx %9.2f %7s\n", names[i],
                icarus_arm.stats.mean, icarus_arm.stats.stddev, native_arm.stats.mean,
                native_arm.stats.stddev, ratio, none_arm.stats.mean,
                match ? "yes" : "NO");
  }
  std::printf("\nresults agree across all three configurations: %s\n",
              all_match ? "yes" : "NO");
  std::printf("worst ICARUS/stock ratio: %.2fx\n", worst_ratio);
  std::printf("(paper: comparable performance between ICARUS-enhanced and stock builds)\n");
  return all_match ? 0 : 1;
}

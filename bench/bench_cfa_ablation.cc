// §2.4 reproduction: why symbolic meta-execution needs the CFA.
//
// The paper reports that Corral ran for a *month* without a verdict on the
// naive meta-stub (the interpreter loop over a fully symbolic buffer has
// ~k^n paths), while the CFA-optimized meta-stub finds the TypedArray.length
// counterexample in 12 seconds and verifies the fix in 7.
//
// This benchmark reproduces that shape on the same stub:
//   1. naive enumeration over all k target ops per buffer slot, under a
//      wall-clock budget, with the projected time to exhaust the space;
//   2. the same search constrained by the control-flow automaton;
//   3. full symbolic meta-execution (buggy: counterexample; fixed: verified).
//
// Exits nonzero unless the buggy stub is refuted and the fixed one verifies.
//
// Usage: bench_cfa_ablation

#include <cstdio>

#include "src/cfa/cfa.h"
#include "src/meta/meta_executor.h"
#include "src/platform/platform.h"
#include "tests/naive_executor.h"

int main() {
  using icarus::platform::Platform;
  auto loaded = Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "platform load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }
  std::unique_ptr<Platform> platform = loaded.take();

  auto stub_or = platform->MakeMetaStub("bug1685925_buggy");
  if (!stub_or.ok()) {
    std::fprintf(stderr, "%s\n", stub_or.status().message().c_str());
    return 1;
  }
  const icarus::meta::MetaStub& stub = stub_or.value();
  const icarus::ast::InterpreterDecl* interp = stub.interpreter;

  std::printf("CFA ablation on the TypedArray.length meta-stub (bug 1685925)\n\n");

  // --- 1. Naive enumeration: growth sweep over the buffer bound n. ---
  std::printf("[naive] fully symbolic buffer: every slot ranges over all k MASM ops\n");
  std::printf("%4s %16s %14s %10s %22s\n", "n", "state space", "explored", "time(s)",
               "projected to exhaust");
  for (int n : {4, 6, 8, 10, 25}) {
    icarus::meta::NaiveConfig config;
    config.max_len = n;
    config.time_budget_seconds = 1.0;
    icarus::meta::NaiveResult r = icarus::meta::NaiveExecutor::RunNaive(interp, config);
    double proj = r.budget_exhausted ? r.ProjectedSeconds() : r.seconds;
    const char* unit = "s";
    double shown = proj;
    if (shown > 3600.0 * 24 * 365) {
      shown /= 3600.0 * 24 * 365;
      unit = "years";
    } else if (shown > 3600.0) {
      shown /= 3600.0;
      unit = "hours";
    }
    std::printf("%4d %16.4g %14lld %10.2f %16.4g %s\n", n, r.total_state_space,
                static_cast<long long>(r.states_explored), r.seconds, shown, unit);
  }
  std::printf("(paper: with k=10, n=25 there are ~1e25 paths; Corral ran for a month "
              "without an answer)\n\n");

  // --- 2. CFA-constrained enumeration. ---
  icarus::cfa::CfaBuilder builder(&platform->module(), &platform->externs());
  auto automaton = builder.Build(stub);
  if (!automaton.ok()) {
    std::fprintf(stderr, "%s\n", automaton.status().message().c_str());
    return 1;
  }
  std::printf("[cfa] %s\n", automaton.value().Summary().c_str());
  icarus::meta::NaiveConfig cfa_config;
  cfa_config.max_len = 25;
  cfa_config.time_budget_seconds = 10.0;
  icarus::meta::NaiveResult cfa_run =
      icarus::meta::NaiveExecutor::RunCfaConstrained(automaton.value(), cfa_config);
  std::printf("[cfa] constrained search: %s\n", cfa_run.Summary().c_str());
  std::printf("(paper: the CFA reduces the search to about ten instruction sequences)\n\n");

  // --- 3. Full symbolic meta-execution (generator-correlated buffers). ---
  icarus::meta::MetaExecutor executor(&platform->module(), &platform->externs());
  icarus::meta::MetaResult buggy = executor.Run(stub);
  std::printf("[sme] buggy stub:  %s in %.3fs (%d paths)\n",
              buggy.verified ? "verified (UNEXPECTED)" : "counterexample found",
              buggy.seconds, buggy.paths_explored);

  auto fixed_or = platform->MakeMetaStub("bug1685925_fixed");
  icarus::meta::MetaResult fixed = executor.Run(fixed_or.value());
  std::printf("[sme] fixed stub:  %s in %.3fs (%d paths)\n",
              fixed.verified ? "verified" : "counterexample (UNEXPECTED)", fixed.seconds,
              fixed.paths_explored);
  std::printf("(paper: counterexample in 12s, fix verified in 7s)\n\n");

  bool sme_ok = !buggy.verified && fixed.verified;
  return sme_ok ? 0 : 1;
}

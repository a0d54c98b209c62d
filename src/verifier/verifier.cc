#include "src/verifier/verifier.h"

#include "src/obs/trace.h"
#include "src/support/str_util.h"

namespace icarus::verifier {

std::string VerifyReport::Render() const {
  std::string out = StrCat("=== ", generator, " ===\n");
  const char* verdict = verified ? "VERIFIED"
                                 : (meta.violations.empty() ? "INCONCLUSIVE"
                                                            : "COUNTEREXAMPLE FOUND");
  out += StrCat(verdict, "\n");
  for (const std::string& note : meta.limit_notes) {
    out += StrCat("inconclusive: ", note, "\n");
  }
  out += StrFormat(
      "paths: %d explored, %d attached, %d infeasible; %lld solver queries\n",
      meta.paths_explored, meta.paths_attached, meta.paths_infeasible,
      static_cast<long long>(meta.solver_queries));
  out += StrFormat("time: mean %.3fs, median %.3fs, sigma %.4fs over runs\n", timing.mean,
                   timing.median, timing.stddev);
  out += StrFormat("icarus loc (call graph): %d\n", total_loc);
  if (cfa_nodes > 0) {
    out += StrFormat("cfa: %d nodes, %d edges, %lld feasible instruction sequences\n",
                     cfa_nodes, cfa_edges, static_cast<long long>(cfa_paths));
  }
  for (const exec::Violation& v : meta.violations) {
    out += StrCat("\nviolation: ", v.message, "\n  at ", v.function,
                  v.line > 0 ? StrCat(" (line ", v.line, ")") : "", "\n");
    if (!v.model.empty()) {
      out += StrCat("  counterexample model:\n", Indent(v.model, 4), "\n");
    }
    for (const std::string& note : v.notes) {
      out += StrCat("  ", note, "\n");
    }
  }
  return out;
}

StatusOr<VerifyReport> Verifier::Verify(const std::string& generator_name,
                                        const VerifyOptions& options) {
  obs::ScopedSpan span("verify", generator_name);
  StatusOr<meta::MetaStub> stub = platform_->MakeMetaStub(generator_name);
  if (!stub.ok()) {
    return stub.status();
  }
  VerifyReport report;
  report.generator = generator_name;
  report.total_loc = platform_->TotalLoc(generator_name);

  // Untimed artifacts first: the CFA is a per-generator construction, not
  // part of meta-execution, so it stays outside the timing loop below (its
  // wall clock is still attributed separately, in cfa_seconds).
  if (options.build_cfa) {
    WallTimer cfa_timer;
    cfa::CfaBuilder builder(&platform_->module(), &platform_->externs());
    StatusOr<cfa::Cfa> automaton = builder.Build(stub.value());
    if (!automaton.ok()) {
      return automaton.status();
    }
    report.cfa_nodes = automaton.value().num_nodes();
    report.cfa_edges = automaton.value().num_edges();
    report.cfa_paths = automaton.value().CountPaths(64, 1000000000);
    report.cfa_dot = automaton.value().ToDot();
    report.cfa_seconds = cfa_timer.ElapsedSeconds();
  }

  meta::MetaExecutor executor(&platform_->module(), &platform_->externs());
  executor.set_solver_cache(options.solver_cache);
  executor.set_solver_limits(options.solver_limits);
  executor.set_cancel_flag(options.cancel);
  executor.set_recording(options.record);

  // Timed loop: meta-execution only, `runs` samples.
  std::vector<double> samples;
  int runs = options.runs < 1 ? 1 : options.runs;
  for (int i = 0; i < runs; ++i) {
    report.meta = executor.Run(stub.value());
    samples.push_back(report.meta.seconds);
  }
  report.timing = ComputeStats(std::move(samples));
  report.verified = report.meta.verified;
  report.inconclusive = report.meta.inconclusive;
  return report;
}

}  // namespace icarus::verifier

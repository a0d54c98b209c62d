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
  out += StrFormat("time: %.4fs\n", meta.seconds);
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
  meta::MetaExecutor executor(&platform_->module(), &platform_->externs());
  executor.set_solver_cache(options.solver_cache);
  executor.set_solver_limits(options.solver_limits);
  executor.set_cancel_flag(options.cancel);
  executor.set_recording(options.record);

  VerifyReport report;
  report.generator = generator_name;
  report.meta = executor.Run(stub.value());
  report.verified = report.meta.verified;
  report.inconclusive = report.meta.inconclusive;
  return report;
}

}  // namespace icarus::verifier

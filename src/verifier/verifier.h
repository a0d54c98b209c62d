// Verification of one generator: build its meta-stub, run one symbolic
// meta-execution pass over it and return the verdict. This is everything
// between a generator name and its verdict; the batch driver, the daemon,
// the benchmarks, the examples and the tests all drive it. The paper's side
// artifacts (the §2.4 control-flow automaton, the Fig. 12 LoC count, warm
// re-run timings) are built by the tools that print them.
#ifndef ICARUS_VERIFIER_VERIFIER_H_
#define ICARUS_VERIFIER_VERIFIER_H_

#include <atomic>
#include <string>

#include "src/meta/meta_executor.h"
#include "src/platform/platform.h"
#include "src/support/status.h"
#include "src/sym/solver.h"

namespace icarus::verifier {

// Knobs for one Verify() call.
struct VerifyOptions {
  bool build_cfa = false;  // Unread; kept only because perfbench assigns it.
  // Shared solver-result cache for every query this verification issues
  // (may be null). Must be concurrency-safe if the same cache is used by
  // concurrent Verify() calls.
  sym::SolverCache* solver_cache = nullptr;
  // Per-query solver decision budget; over-budget queries degrade the report
  // to inconclusive rather than hanging the pipeline.
  sym::Solver::Limits solver_limits;
  // Cooperative cancellation (fleet deadline); checked between paths.
  const std::atomic<bool>* cancel = nullptr;
  // Flight recorder: keep a bounded per-path event log, attached to any
  // violation found (see MetaExecutor::set_recording). Off by default — the
  // structured counterexample (witnesses, decisions, op sequences) is
  // captured either way; only the event log costs extra.
  bool record = false;
};

// Everything Verify() learned about one generator.
struct VerifyReport {
  std::string generator;
  bool verified = false;      // All paths proven safe (never true if inconclusive).
  bool inconclusive = false;  // A resource budget/deadline prevented a verdict.
  meta::MetaResult meta;      // The meta-execution pass.

  // Human-readable report: verdict, path counts, counterexample if any.
  std::string Render() const;
};

// Serial single-generator driver; see BatchVerifier for the parallel fleet.
class Verifier {
 public:
  // `platform` must outlive the verifier.
  explicit Verifier(const platform::Platform* platform) : platform_(platform) {}

  // Verifies one generator end-to-end; errors only on unknown generators or
  // malformed platform state (verdicts, including refutations, are reports).
  StatusOr<VerifyReport> Verify(const std::string& generator_name,
                                const VerifyOptions& options = VerifyOptions());

 private:
  const platform::Platform* platform_;
};

}  // namespace icarus::verifier

#endif  // ICARUS_VERIFIER_VERIFIER_H_

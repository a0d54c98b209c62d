// Top-level verification pipeline: generator name → CFA → meta-execution →
// verdict with timing, the API the benchmarks, examples, and tests drive.
#ifndef ICARUS_VERIFIER_VERIFIER_H_
#define ICARUS_VERIFIER_VERIFIER_H_

#include <atomic>
#include <string>

#include "src/cfa/cfa.h"
#include "src/meta/meta_executor.h"
#include "src/platform/platform.h"
#include "src/support/status.h"
#include "src/support/timing.h"
#include "src/sym/solver.h"

namespace icarus::verifier {

// Knobs for one Verify() call.
struct VerifyOptions {
  // Repeat the meta-execution this many times and report SampleStats over the
  // per-run wall clocks. Only the meta-execution is inside the timed loop —
  // stub construction and CFA building happen once, outside it — so the
  // statistics measure meta-execution alone. Note that with a solver cache
  // attached, runs after the first mostly hit the cache; benchmark cold
  // solving with `solver_cache == nullptr`.
  int runs = 1;
  // Also construct the explicit automaton artifact (nodes/edges/paths/DOT).
  bool build_cfa = true;
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
  meta::MetaResult meta;      // Result of the last run.
  SampleStats timing;         // Seconds per run (meta-execution only).
  double cfa_seconds = 0.0;   // Wall time of the CFA build (0 when skipped).
  int total_loc = 0;          // Figure 12-style LoC attribution.
  // The automaton artifact (empty unless build_cfa).
  int cfa_nodes = 0;
  int cfa_edges = 0;
  int64_t cfa_paths = 0;      // Instruction sequences through the automaton.
  std::string cfa_dot;        // GraphViz rendering.

  // Human-readable report: verdict, stub shapes, counterexample if any.
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

// Flight-recorder rendering and concrete replay of counterexamples.
//
// The meta-executor attaches structured counterexample data to every
// Violation it collects (branch decisions, emitted op sequences, symbolic
// inputs, solver witnesses). This module turns that data into:
//
//   1. RenderCounterexample — the human-readable "explain" block printed by
//      `icarus explain` and `verify-all --explain`;
//   2. ReplayWithWitnesses — a harness that re-runs the meta-stub with every
//      symbolic input *pinned to its witness value* from the counterexample
//      model. If the violation is genuine, the pinned run must reach the
//      same contract failure: this is the machine check that the recorded
//      witness actually triggers the bug, not just that the solver said SAT.
//
// Witness-to-input matching is by *base name*: fresh variables are named
// `prefix#N` with a per-pool counter, so the numeric suffix differs between
// the recording run and the replay run. Base names repeat only if a helper
// creates several inputs from one prefix, in which case witnesses are
// consumed in creation order, which the fixed exploration order (depth
// first, true arm first) preserves. Replay takes no decision list: the
// pinned inputs leave the failing path feasible, and MetaExecutor::Run
// explores the rest as usual.
#ifndef ICARUS_META_PATH_RECORDER_H_
#define ICARUS_META_PATH_RECORDER_H_

#include <string>
#include <string_view>

#include "src/exec/evaluator.h"
#include "src/meta/meta_executor.h"

namespace icarus::meta {

// Strips the `#N` fresh-counter suffix: "gen_mode#3" -> "gen_mode".
std::string_view WitnessBaseName(std::string_view name);

// Renders a decision trace as a compact T/F string: {1,1,0,1} -> "TTFT".
// This is the journal's cx_decisions wire form.
std::string RenderDecisionString(const std::vector<bool>& decisions);

// One-line witness summary for the journal and report tables:
// "gen_mode = 1; run_val = unconstrained". Inputs are matched to witnesses
// by base name in creation order, same as RenderCounterexample.
std::string RenderWitnessSummary(const exec::Violation& v);

// Renders the full explain block for one violation: contract, location,
// branch decisions, emitted op sequences, witness values per symbolic input
// (inputs without a witness are reported as unconstrained), and the bounded
// event log when one was recorded.
std::string RenderCounterexample(const exec::Violation& v);

// Outcome of a pinned replay.
struct ReplayOutcome {
  // True iff some path of the pinned run hit a violation with the same
  // contract message as the original counterexample.
  bool reproduced = false;
  MetaResult result;  // Full result of the pinned run (for diagnostics).
};

// Re-runs `stub` with every symbolic input that has a witness in
// `violation` constrained to that concrete value (Int and Bool sorts; Term
// witnesses are abstract individuals and stay unconstrained). Inputs are
// matched to witnesses by base name, in creation order. The replay runs
// with recording enabled so its own violations carry event logs.
ReplayOutcome ReplayWithWitnesses(const ast::Module* module,
                                  const exec::ExternRegistry* externs,
                                  const MetaStub& stub,
                                  const exec::Violation& violation,
                                  sym::SolverCache* cache = nullptr);

}  // namespace icarus::meta

#endif  // ICARUS_META_PATH_RECORDER_H_

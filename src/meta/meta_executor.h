// Symbolic meta-execution (the paper's core technique, §2.3–§2.4).
//
// A meta-stub is the composition of (generator, compiler, interpreter,
// runtime contracts). The MetaExecutor explores every path of the meta-stub:
//
//   Phase 1 (generate): symbolically run the IC stub generator; every `emit`
//   of a source-language op immediately invokes the compiler callback (the
//   streaming structure of Figure 3), filling the target-language buffer.
//   Branches on symbolic data fork paths.
//
//   Phase 2 (interpret): for each generator path that attached a stub, run
//   the target interpreter callbacks over the per-path buffer. The op at
//   each position is *known* on the path — this is exactly the benefit the
//   CFA optimization buys the paper's Boogie encoding, realized natively
//   here (the naive `k^n` enumeration is test code, tests/naive_executor.*,
//   kept for the ablation benchmark).
//
// Inputs of the two phases are distinct symbolic constants: the generation-
// time sample input constrains what the generator *decided* to emit; the
// run-time input is the adversarial "future value" the guards must protect
// against. Everything the stub captured at generation time (shape pointers,
// getter/setter pointers) flows into instruction operands as terms over the
// generation-time input — which is what makes guard/fast-path mismatches
// (like bug 1685925) satisfiable counterexamples.
#ifndef ICARUS_META_META_EXECUTOR_H_
#define ICARUS_META_META_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/exec/evaluator.h"
#include "src/support/cancel.h"
#include "src/sym/solver.h"

namespace icarus::meta {

// Builds the generator's arguments and initializes the machine (operand
// table + run-time input registers). Returns the argument list.
using InputBuilder =
    std::function<Status(exec::EvalContext&, std::vector<exec::Value>*)>;

struct MetaStub {
  const ast::FunctionDecl* generator = nullptr;
  const ast::CompilerDecl* compiler = nullptr;
  const ast::InterpreterDecl* interpreter = nullptr;
  InputBuilder inputs;
  // Enum index of AttachDecision::Attach in the module (resolved by setup).
  int attach_index = 0;
};

struct MetaResult {
  // True iff every path completed with no violations and no resource limits;
  // mutually exclusive with `inconclusive`.
  bool verified = false;
  // True when a resource limit (per-query solver budget, path budget, or an
  // external cancellation/deadline) prevented a full verdict. An
  // inconclusive result is *not* a counterexample: `violations` stays empty
  // unless a genuine violation was also found on some fully-decided path.
  bool inconclusive = false;
  bool cancelled = false;  // Aborted by the caller's cancel flag (deadline).
  std::vector<exec::Violation> violations;
  std::vector<std::string> limit_notes;  // Why inconclusive, one per cause.
  int paths_explored = 0;
  int paths_infeasible = 0;
  int paths_attached = 0;  // Paths on which a stub was attached.
  int paths_limited = 0;   // Paths abandoned on a resource limit.
  int paths_forked = 0;    // Symbolic branches reached (one choice point each).
  int paths_merged = 0;    // Always 0 (every join forks); kept only because perfbench reads it.
  int64_t solver_queries = 0;  // Solve() calls, cache hits included (a solver delta).
  double seconds = 0.0;
  // Per-stage cost attribution. The phase walls are *exclusive* of solver
  // time (which is reported separately in solve_seconds), so the three stage
  // numbers partition the work even though solver queries are issued from
  // inside both phases. A backtrack counts toward the phase it resumes. They
  // need not sum to `seconds`: attach checks and outcome collection are
  // deliberately unattributed.
  double gen_seconds = 0.0;      // Phase 1 (generate), minus solver time.
  double interp_seconds = 0.0;   // Phase 2 (interpret), minus solver time.
  double solve_seconds = 0.0;    // Wall time inside Solver::Solve.
  // Counters of the run's persistent solver, as deltas over this Run().
  int64_t solver_decisions = 0;        // Branching decisions across all queries.
  int64_t solver_propagations = 0;     // Literals assigned by unit propagation.
  int64_t solver_learned_clauses = 0;  // 1-UIP clauses + theory lemmas learned.
  int64_t solver_restarts = 0;         // Luby restarts.
  int64_t solver_theory_conflicts = 0;  // Theory conflicts, one lemma each.
  int64_t solver_lemma_literals = 0;    // Literals over all theory lemmas.
  int64_t solver_levels_kept = 0;       // Assumption levels kept from the previous query.
  int64_t solver_theory_literals = 0;   // Theory literals read by full-assignment checks.
  int64_t solver_budget_exhausted = 0;  // Queries the decision budget degraded to kUnknown.
  std::string Summary() const;
};

class MetaExecutor {
 public:
  MetaExecutor(const ast::Module* module, const exec::ExternRegistry* externs);
  ~MetaExecutor();  // Out of line: members of forward-declared types.

  // Shared solver-result cache applied to every path's context (may be null;
  // must be concurrency-safe when the executor runs on a pool worker).
  void set_solver_cache(sym::SolverCache* cache) { solver_cache_ = cache; }
  // Per-query decision budget of the persistent solver, which the first
  // Run() builds: set it before then.
  void set_solver_limits(const sym::Solver::Limits& limits) { solver_limits_ = limits; }
  // Cooperative cancellation: checked before each path; when it says stop,
  // the run stops early and the result is marked cancelled + inconclusive.
  // May be null; must outlive Run().
  void set_cancellation(const Cancellation* cancel) { cancel_ = cancel; }
  // Flight recorder: with recording on, every path keeps a bounded event log
  // (branch decisions, emits, assertion checks) that is attached to any
  // Violation collected on that path. Structured counterexample data
  // (decisions, op sequences, witnesses, symbolic inputs) is captured on
  // violations regardless of this flag — only the event log costs extra.
  void set_recording(bool on) { recording_ = on; }
  // Called on each path that attached a stub, once every label of its
  // target buffer is bound and before the interpreter phase runs it (so
  // paths that go on to violate a contract are seen too). Paths that fork
  // inside the interpreter phase share their generator phase; each of them
  // is seen once, in the state the context had when the shared generator
  // phase attached. It must leave the context as it found it; the C++
  // extraction backend reads the buffer from here to compile one stub
  // runner per instruction list.
  using AttachedPathHook = std::function<void(exec::EvalContext&)>;
  void set_attached_path_hook(AttachedPathHook hook) { attached_path_hook_ = std::move(hook); }

  // Explores all paths of the meta-stub. `verified` is true iff every path
  // completed with no violations and no resource limits.
  MetaResult Run(const MetaStub& stub);

 private:
  const ast::Module* module_;
  const exec::ExternRegistry* externs_;
  sym::SolverCache* solver_cache_ = nullptr;
  sym::Solver::Limits solver_limits_;
  const Cancellation* cancel_ = nullptr;
  bool recording_ = false;
  AttachedPathHook attached_path_hook_;
  // Warm state shared by every Run() on this executor (one executor per
  // generator). The pool hash-conses terms and every run restarts the fresh
  // suffix sequence (ExprPool::ResetFresh), so repeated runs mint the same
  // nodes and the solver's Tseitin encoding, learned clauses, and the
  // run-local result cache all stay valid and keep paying off — this is the
  // steady state a long-lived verification service operates in. The solver
  // must not outlive the pool (declaration order matters: pool first).
  std::unique_ptr<sym::ExprPool> pool_;
  std::unique_ptr<sym::Solver> solver_;
  std::unique_ptr<sym::SolverCache> run_cache_;
};

}  // namespace icarus::meta

#endif  // ICARUS_META_META_EXECUTOR_H_

// The Icarus evaluator: executes DSL functions either symbolically (for
// verification) or concretely (for differential testing and the mini-JS VM).
//
// Path exploration uses deterministic re-execution with a decision trace:
// each run of a function follows a recorded list of branch decisions; when
// execution reaches a branch beyond the end of the trace, it takes the
// `true` arm, appends that decision, and registers the `false` alternative
// with the owner's worklist. The meta-executor re-runs from scratch per
// pending trace. Programs are small and loop-free, so re-execution is cheap
// and forking needs no state snapshotting.
//
// Responsibilities split:
//   - Evaluator/EvalContext (this file): statement & expression semantics,
//     path condition management, assert/assume, extern contract application,
//     emit bookkeeping, label discipline.
//   - machine::MachineState: register/stack model mutated by host builtins.
//   - meta::MetaExecutor: drives generator phase + interpreter phase and the
//     path worklist (the "meta-stub" of the paper).
#ifndef ICARUS_EXEC_EVALUATOR_H_
#define ICARUS_EXEC_EVALUATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/machine/machine_state.h"
#include "src/support/status.h"
#include "src/sym/expr.h"
#include "src/sym/solver.h"

namespace icarus::exec {

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

struct Value {
  const ast::Type* type = nullptr;
  sym::ExprRef term = nullptr;
  int label_id = -1;

  bool IsLabel() const { return label_id >= 0; }
  bool IsVoid() const { return type != nullptr && type->kind() == ast::TypeKind::kVoid; }

  static Value Label(const ast::Type* label_type, int id) {
    Value v;
    v.type = label_type;
    v.label_id = id;
    return v;
  }
  static Value Of(const ast::Type* type, sym::ExprRef term) {
    Value v;
    v.type = type;
    v.term = term;
    return v;
  }
  static Value Void(const ast::Type* void_type) {
    Value v;
    v.type = void_type;
    return v;
  }
};

// Maps a DSL type to the solver sort its terms live in.
sym::Sort SortOf(const ast::Type* type);

// ---------------------------------------------------------------------------
// Emitted code
// ---------------------------------------------------------------------------

inline constexpr int kLabelUnbound = -1;
inline constexpr int kLabelFailure = -2;

struct LabelInfo {
  int target = kLabelUnbound;  // Instruction index, or kLabelFailure.
  bool is_failure = false;
  const ast::Stmt* decl_site = nullptr;
};

struct Instr {
  const ast::OpDecl* op = nullptr;
  std::vector<Value> args;
  const ast::Stmt* emit_site = nullptr;  // Static emit statement (CFA node identity).
  // For target instructions: the source-language op whose compilation
  // emitted this (used to group CFA nodes the way Figure 6 does), plus the
  // index of that source instruction in the trace. The pair (emit_site,
  // source_index) plays the role of the paper's emitPath: the same compiler
  // emit statement reached for different source instructions yields distinct
  // CFA nodes, keeping the automaton acyclic for loop-free generators.
  const ast::OpDecl* source_op = nullptr;
  int source_index = -1;
};

// The per-path instruction buffers and label table.
class EmitState {
 public:
  std::vector<Instr> source_trace;  // Source-language (CacheIR) instructions.
  std::vector<Instr> target;        // Target-language (MASM) instruction buffer.
  std::vector<LabelInfo> labels;

  int NewLabel(bool is_failure, const ast::Stmt* decl_site) {
    LabelInfo info;
    info.is_failure = is_failure;
    info.target = is_failure ? kLabelFailure : kLabelUnbound;
    info.decl_site = decl_site;
    labels.push_back(info);
    return static_cast<int>(labels.size()) - 1;
  }

  // Binds `label_id` to the next target instruction to be emitted.
  Status Bind(int label_id);

  // All locally-declared labels must be bound by the time the stub is done.
  Status CheckAllBound() const;
};

// ---------------------------------------------------------------------------
// Path outcome
// ---------------------------------------------------------------------------

enum class PathStatus {
  kCompleted,   // Ran to completion, all assertions verified on this path.
  kInfeasible,  // Path condition became unsatisfiable.
  kViolation,   // An assertion/discipline violation — counterexample found.
  kLimit,       // Resource limit (step budget / solver unknown).
};

struct Violation {
  std::string message;
  std::string function;
  int line = 0;
  std::string model;                // Solver model (symbolic counterexamples).
  std::vector<std::string> notes;   // Extra context (machine state, buffers).

  // --- Flight recorder ---
  // Structured counterexample data captured on the failing path; always
  // populated for symbolic violations (the data is cheap — the solver model
  // and op-name copies), independent of the event log below.
  std::vector<bool> decisions;               // Branch decisions of the path.
  std::vector<sym::Witness> witnesses;       // Concrete witness values from
                                             // the SAT model, per variable.
  std::vector<std::string> symbolic_inputs;  // Fresh symbolic inputs created
                                             // on the path (creation order).
  std::vector<std::string> source_ops;       // Source-language ops emitted.
  std::vector<std::string> target_ops;       // Target instruction buffer.
  // Bounded per-path event log, captured only when the owning context has
  // recording enabled (string rendering per event is not free). The first
  // `events` up to the cap are kept; the rest are counted, not stored.
  std::vector<std::string> events;
  int64_t events_dropped = 0;
};

// ---------------------------------------------------------------------------
// Extern registry
// ---------------------------------------------------------------------------

class EvalContext;

using ExternHandler =
    std::function<StatusOr<Value>(EvalContext&, const std::vector<Value>&)>;

// Host implementations for extern functions. Externs with no handler are
// treated as pure uninterpreted functions governed by their contracts
// (symbolic mode only).
class ExternRegistry {
 public:
  void Register(const std::string& name, ExternHandler handler) {
    handlers_[name] = std::move(handler);
  }
  const ExternHandler* Find(const std::string& name) const {
    auto it = handlers_.find(name);
    return it == handlers_.end() ? nullptr : &it->second;
  }

  // Names of all host-bound externs (used by the Boogie backend to decide
  // which externs lower to machine-state procedures).
  std::vector<std::string> HostBoundNames() const {
    std::vector<std::string> names;
    names.reserve(handlers_.size());
    for (const auto& [name, handler] : handlers_) {
      names.push_back(name);
    }
    return names;
  }

 private:
  std::map<std::string, ExternHandler> handlers_;
};

// ---------------------------------------------------------------------------
// Evaluation context (one path)
// ---------------------------------------------------------------------------

enum class Mode { kSymbolic, kConcrete };

// Called when a generator/helper emits a *source-language* op, after the
// instruction is recorded; used by the meta-executor to run the compiler
// callback for the op (the streaming structure of Figure 3).
using SourceEmitHook =
    std::function<Status(EvalContext&, const Instr&)>;

class EvalContext {
 public:
  EvalContext(const ast::Module* module, sym::ExprPool* pool,
              const ExternRegistry* externs, Mode mode);

  const ast::Module& module() const { return *module_; }
  sym::ExprPool& pool() { return *pool_; }
  Mode mode() const { return mode_; }
  machine::MachineState& machine() { return machine_; }
  EmitState& emits() { return emits_; }

  void set_source_emit_hook(SourceEmitHook hook) { source_hook_ = std::move(hook); }
  const SourceEmitHook& source_hook() const { return source_hook_; }

  // --- Decision trace (owned by the path explorer) ---
  void StartPath(std::vector<bool> trace) {
    // Re-executing a path from the root must mint the same variable nodes at
    // the same positions (see ExprPool::ResetFresh). Aliasing same-position
    // variables across paths is sound: the solver's clause database only ever
    // holds consequences of the empty context (Tseitin definitions and theory
    // lemmas are valid for every interpretation of the named atoms), so a
    // clause learned on one path is a tautology over the sibling's atoms too.
    pool_->ResetFresh();
    trace_ = std::move(trace);
    trace_pos_ = 0;
    pending_alternatives_.clear();
    path_condition_.clear();
    status_ = PathStatus::kCompleted;
    violation_ = Violation{};
    steps_ = 0;
    symbolic_inputs_.clear();
    events_.clear();
    events_dropped_ = 0;
  }
  const std::vector<bool>& trace() const { return trace_; }
  // Traces for the sibling branches discovered while running this path.
  const std::vector<std::vector<bool>>& pending_alternatives() const {
    return pending_alternatives_;
  }

  // --- Path condition & checks ---
  void Assume(sym::ExprRef cond);
  // True if the current path condition is still satisfiable.
  bool PathFeasible();
  // Verifies `cond` holds on all models of the path condition. On failure
  // records a Violation and flips the path status. Returns false on failure.
  bool CheckAssert(sym::ExprRef cond, const std::string& what, const std::string& fn,
                   int line);
  // Records a concrete (non-symbolic) discipline failure.
  void FailPath(const std::string& message, const std::string& fn, int line);
  // Chooses a branch for `cond`: concrete conditions simply evaluate;
  // symbolic conditions consult/extend the decision trace and update the
  // path condition. Sets *ok=false if the path should be abandoned.
  bool DecideBranch(sym::ExprRef cond, bool* ok);

  PathStatus status() const { return status_; }
  void set_status(PathStatus s) { status_ = s; }
  const Violation& violation() const { return violation_; }
  const std::vector<sym::ExprRef>& path_condition() const { return path_condition_; }

  // Step budget guard; returns false (and sets kLimit) when exhausted.
  bool CountStep();

  // --- Solver configuration (applies to every query this context issues) ---
  // Attaches a shared, concurrency-safe solver-result cache (may be null).
  void set_solver_cache(sym::SolverCache* cache) { solver_cache_ = cache; }
  sym::SolverCache* solver_cache() const { return solver_cache_; }
  // Per-query resource budgets; queries over budget degrade to kUnknown.
  void set_solver_limits(const sym::Solver::Limits& limits) { solver_limits_ = limits; }
  const sym::Solver::Limits& solver_limits() const { return solver_limits_; }
  // Attaches a persistent Solver owned by the caller (the meta-executor keeps
  // one per generator run, so clauses learned on one path prune its
  // siblings). Null (the default) makes every query build a fresh throwaway
  // solver. The solver must outlive the context; its limits are re-synced
  // from solver_limits() before each query, and this context's per-query
  // cost counters are accumulated as deltas against its stats.
  void set_solver(sym::Solver* solver) { solver_ = solver; }
  sym::Solver* solver() const { return solver_; }

  // Fresh symbolic constant of the given DSL type, with enum-range
  // assumptions applied automatically.
  Value FreshValue(const std::string& prefix, const ast::Type* type);

  // --- Flight recorder ---
  // With recording on, the context keeps a bounded human-readable event log
  // per path (branch decisions, emits, assertion checks). Off by default:
  // rendering event strings costs time on every statement, so only the
  // explain/record pipelines turn it on.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }
  void set_max_events(size_t n) { max_events_ = n; }
  // Appends one event line (recording only; over-cap events are counted).
  void LogEvent(std::string event);
  const std::vector<std::string>& events() const { return events_; }
  int64_t events_dropped() const { return events_dropped_; }
  // Fresh symbolic inputs created on this path, in creation order: the
  // (name, term) pairs FreshValue handed out. Witness values from a SAT
  // model are matched back to these names in counterexample reports, and
  // the replay harness constrains exactly these terms.
  const std::vector<std::pair<std::string, sym::ExprRef>>& symbolic_inputs() const {
    return symbolic_inputs_;
  }

  // Pretty renderer for violation reports.
  std::string RenderPathCondition() const;

  // Statistics for benches and batch reports.
  int64_t solver_queries() const { return solver_queries_; }
  int64_t paths_decided() const { return static_cast<int64_t>(trace_.size()); }
  // Queries on this path that degraded to kUnknown (budget exhausted). A
  // nonzero count means the path's verdict is inconclusive, not proven.
  int64_t solver_unknowns() const { return solver_unknowns_; }
  // Wall-clock seconds and DPLL decisions spent inside solver queries issued
  // by this context. Accumulated unconditionally (two cheap reads per query)
  // so per-verdict cost attribution works without the metrics registry.
  double solver_seconds() const { return solver_seconds_; }
  int64_t solver_decisions() const { return solver_decisions_; }

  // Opaque user pointer for host bindings (the VM installs its runtime here).
  void* host_data = nullptr;

  // Set by the MASM::returnFromStub builtin; the interpreter-phase loop in
  // the meta-executor polls and clears it.
  bool stub_return_requested = false;

  // Abstract (all-branches) mode, used by the CFA builder: branches explore
  // both arms regardless of feasibility and assertions are not checked —
  // only the emit/label structure is observed.
  void set_abstract_mode(bool on) { abstract_mode_ = on; }
  bool abstract_mode() const { return abstract_mode_; }

 private:
  friend class Evaluator;

  // Issues one satisfiability query through the shared solver when one is
  // attached, or a fresh local solver otherwise, maintaining the per-context
  // cost counters either way.
  sym::SolveResult SolveQuery(const std::vector<sym::ExprRef>& conjuncts, bool want_model);

  const ast::Module* module_;
  sym::ExprPool* pool_;
  const ExternRegistry* externs_;
  Mode mode_;
  machine::MachineState machine_;
  EmitState emits_;
  SourceEmitHook source_hook_;

  std::vector<bool> trace_;
  size_t trace_pos_ = 0;
  std::vector<std::vector<bool>> pending_alternatives_;
  std::vector<sym::ExprRef> path_condition_;
  PathStatus status_ = PathStatus::kCompleted;
  Violation violation_;
  int64_t steps_ = 0;
  int64_t solver_queries_ = 0;
  int64_t solver_unknowns_ = 0;
  double solver_seconds_ = 0.0;
  int64_t solver_decisions_ = 0;
  sym::SolverCache* solver_cache_ = nullptr;
  sym::Solver::Limits solver_limits_;
  sym::Solver* solver_ = nullptr;  // Shared persistent solver (not owned).
  bool abstract_mode_ = false;
  bool recording_ = false;
  size_t max_events_ = 256;
  std::vector<std::string> events_;
  int64_t events_dropped_ = 0;
  std::vector<std::pair<std::string, sym::ExprRef>> symbolic_inputs_;
};

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

class Evaluator {
 public:
  // Runs `fn` with `args` on the context's current path. Returns the
  // function result (void Value for procedures); any violation/infeasibility
  // is recorded on the context. If the context status is no longer
  // kCompleted, the caller should stop and inspect it.
  static Value RunFunction(EvalContext& ctx, const ast::FunctionDecl* fn,
                           std::vector<Value> args);

  // Invokes an extern: host handler if registered, otherwise pure
  // uninterpreted semantics with requires/ensures contracts.
  static Value CallExtern(EvalContext& ctx, const ast::ExternFnDecl* ext,
                          std::vector<Value> args);

  // Runs an interpreter callback for one emitted instruction. A `goto`
  // executed inside the callback is returned through *out_goto_label
  // (-1 when control falls through).
  static void RunInterpreterOp(EvalContext& ctx, const ast::FunctionDecl* cb,
                               const Instr& instr, int* out_goto_label);
};

}  // namespace icarus::exec

#endif  // ICARUS_EXEC_EVALUATOR_H_

// The Icarus evaluator: executes DSL functions symbolically, for
// verification. Terms over constants fold as they are built, so a branch
// on a constant condition simply takes its arm; only symbolic conditions
// fork. Witness replay (meta/path_recorder.h) pins inputs with path-condition
// equalities and runs symbolically too. The mini-JS VM runs the same DSL
// code as extracted C++ instead (src/extract/, src/vm/ic.cc).
//
// Path exploration backtracks. The Explorer runs each function's flat form
// (exec/code.h) on explicit frames in one loop. At a symbolic branch it
// pushes a choice point that holds the path's state, takes the `true` arm,
// and when the path ends it restores the newest choice point and takes that
// branch's `false` arm. Every path is therefore explored once, depth first,
// true arm first: the order in which each query is asked, its conjuncts and
// the fresh variables it names are fixed by the program. The state that only
// grows (path condition, emit buffers, symbolic inputs, event log, decisions)
// is restored by truncation; frames, machine state and label bindings,
// which change in place, are copied.
//
// Responsibilities split:
//   - EvalContext (this file): the path state, and the semantics of path
//     conditions, assert/assume, fresh inputs and the event log.
//   - Explorer (this file): the run loop over frames, extern calls and their
//     contracts, emit bookkeeping, label discipline, the interpreter phase
//     over a target buffer, and the choice points.
//   - machine::MachineState: register/stack model mutated by host builtins.
//   - meta::MetaExecutor: drives the generator phase and the interpreter
//     phase of a meta-stub (the "meta-stub" of the paper) and collects each
//     path's outcome.
#ifndef ICARUS_EXEC_EVALUATOR_H_
#define ICARUS_EXEC_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
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

// Host implementations for extern functions, keyed by declaration. Externs
// with no handler are treated as pure uninterpreted functions governed by
// their contracts.
class ExternRegistry {
 public:
  // Binds `handler` to the extern `name` that `module` declares.
  void Register(const ast::Module& module, const std::string& name, ExternHandler handler);
  // The handler bound to `ext`, or null for a contract-only extern.
  const ExternHandler* Find(const ast::ExternFnDecl* ext) const {
    auto it = handlers_.find(ext);
    return it == handlers_.end() ? nullptr : &it->second;
  }

  // Names of all host-bound externs, sorted (used by the Boogie backend to
  // decide which externs lower to machine-state procedures).
  std::vector<std::string> HostBoundNames() const;

 private:
  std::unordered_map<const ast::ExternFnDecl*, ExternHandler> handlers_;
};

// ---------------------------------------------------------------------------
// Evaluation context (the state of one path)
// ---------------------------------------------------------------------------

// The text of a checked condition, for a violation, a solver-limit note or
// a recorded event. It is rendered only when one of those needs it, so a
// check that passes unrecorded builds no string. It refers to the callable
// it was made from, which must outlive it (pass a lambda in the call).
class CheckLabel {
 public:
  template <typename Render>
  CheckLabel(const Render& render)  // NOLINT: implicit, for lambdas at call sites.
      : render_(&render),
        call_([](const void* r) -> std::string { return (*static_cast<const Render*>(r))(); }) {}

  std::string operator()() const { return call_(render_); }

 private:
  const void* render_;
  std::string (*call_)(const void*);
};

class EvalContext {
 public:
  EvalContext(const ast::Module* module, sym::ExprPool* pool,
              const ExternRegistry* externs);

  const ast::Module& module() const { return *module_; }
  sym::ExprPool& pool() { return *pool_; }
  machine::MachineState& machine() { return machine_; }
  EmitState& emits() { return emits_; }
  const EmitState& emits() const { return emits_; }

  // Branch decisions taken on this path so far, in order.
  const std::vector<bool>& decisions() const { return decisions_; }

  // --- Path condition & checks ---
  void Assume(sym::ExprRef cond);
  // True if the current path condition is still satisfiable.
  bool PathFeasible();
  // Verifies `cond` holds on all models of the path condition. On failure
  // records a Violation and flips the path status. Returns false on failure.
  bool CheckAssert(sym::ExprRef cond, CheckLabel what, std::string_view fn, int line);
  // Records a concrete (non-symbolic) discipline failure.
  void FailPath(const std::string& message, std::string_view fn, int line);

  PathStatus status() const { return status_; }
  const Violation& violation() const { return violation_; }
  const std::vector<sym::ExprRef>& path_condition() const { return path_condition_; }

  // --- Solver configuration (applies to every query this context issues) ---
  // Attaches the persistent Solver, owned by the caller, that answers every
  // query (the meta-executor keeps one per generator run, so clauses learned
  // on one path prune its siblings). A context that issues a query must have
  // one; abstract mode issues none. The solver must outlive the context and
  // keeps the limits and result cache it was given; its SolverStats count
  // the queries and their work.
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

  // Wall-clock seconds spent inside solver queries issued by this context,
  // which the meta-executor subtracts from its phase walls.
  double solver_seconds() const { return solver_seconds_; }

  // Set by the MASM::returnFromStub builtin; the interpreter phase polls and
  // clears it after each callback.
  bool stub_return_requested = false;

  // Abstract (all-branches) mode, used by the CFA builder: branches explore
  // both arms regardless of feasibility and assertions are not checked —
  // only the emit/label structure is observed.
  void set_abstract_mode(bool on) { abstract_mode_ = on; }

 private:
  friend class Explorer;

  // Issues one satisfiability query through the attached solver (throws
  // InternalError when none is attached) and times it.
  sym::SolveResult SolveQuery(const std::vector<sym::ExprRef>& conjuncts, bool want_model);
  // Takes one arm of a symbolic branch: records the decision, assumes the
  // arm's condition and ends the path if that made it infeasible.
  void TakeBranch(sym::ExprRef cond, bool arm);
  // Step budget guard; returns false (and sets kLimit) when exhausted.
  bool CountStep();

  const ast::Module* module_;
  sym::ExprPool* pool_;
  const ExternRegistry* externs_;
  machine::MachineState machine_;
  EmitState emits_;

  std::vector<bool> decisions_;
  std::vector<sym::ExprRef> path_condition_;
  PathStatus status_ = PathStatus::kCompleted;
  Violation violation_;
  int64_t steps_ = 0;
  double solver_seconds_ = 0.0;
  sym::Solver* solver_ = nullptr;  // Shared persistent solver (not owned).
  bool abstract_mode_ = false;
  bool recording_ = false;
  size_t max_events_ = 256;
  std::vector<std::string> events_;
  int64_t events_dropped_ = 0;
  std::vector<std::pair<std::string, sym::ExprRef>> symbolic_inputs_;
};

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

struct Code;
struct Insn;

// Runs DSL code on explicit frames, one loop over the lowered instructions,
// and explores every path of it by backtracking (see the top of this file).
// A caller starts the first path with Call, runs it with Run, and after
// each path ends calls Backtrack until it returns false:
//
//   explorer.Call(fn, args);
//   do {
//     explorer.Run(&result);  // ctx.status() says how the path ended
//   } while (explorer.Backtrack());
//
// Host code may run between Run calls (the meta-executor checks the attach
// decision there and starts the interpreter phase); what it changes in the
// context is path state like any other.
class Explorer {
 public:
  explicit Explorer(EvalContext* ctx) : ctx_(ctx) {}
  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  // Source-language emits also run `compiler`'s callback for the op, on the
  // same path (the streaming structure of Figure 3). Without a compiler they
  // are only recorded.
  void set_compiler(const ast::CompilerDecl* compiler) { compiler_ = compiler; }

  // Starts `fn(args)` on the current path, which must have no frames.
  void Call(const ast::FunctionDecl* fn, const std::vector<Value>& args);
  // Starts the interpreter phase on the current path, which must have no
  // frames: `interpreter`'s callbacks run the target buffer from its first
  // instruction, following gotos, until it falls off the end, returns from
  // the stub or bails out; then the exit invariants are checked.
  void Interpret(const ast::InterpreterDecl* interpreter);
  // True while the current path is in the interpreter phase.
  bool interpreting() const;

  enum class Stop {
    kEnded,        // The path ended: ctx.status() is no longer kCompleted.
    kReturned,     // Call's function returned *result.
    kInterpreted,  // The interpreter phase finished.
  };
  // Runs the current path until its frames are done or it ends.
  Stop Run(Value* result);

  // Symbolic branches whose `false` arm has not run yet: the paths left.
  size_t pending() const { return num_choices_; }
  // Choice points pushed so far (one per symbolic branch reached).
  int forks() const { return forks_; }
  // Restores the newest choice point and takes its `false` arm, which may
  // end the path at once as infeasible. False when no choice point is left.
  bool Backtrack();

 private:
  // One activation. `code` is null for the interpreter phase, whose `pc`
  // runs over the target buffer instead of `code`.
  struct Frame {
    const Code* code = nullptr;
    int pc = 0;
    int base = 0;   // First slot of this frame in `slots_`.
    int ret = -1;   // The caller's slot (absolute) that receives the result.
    // Interpreter phase:
    const ast::InterpreterDecl* interpreter = nullptr;
    int steps = 0;
    bool in_callback = false;  // A callback for target[pc] is running.
    int goto_label = -1;       // Set by that callback's `goto`.
  };

  // A symbolic branch whose `false` arm is still to run, with the state of
  // the path just before the branch.
  struct ChoicePoint {
    sym::ExprRef cond = nullptr;
    size_t path_condition = 0;
    size_t symbolic_inputs = 0;
    size_t events = 0;
    size_t source_trace = 0;
    size_t target = 0;
    size_t decisions = 0;
    int64_t events_dropped = 0;
    int64_t steps = 0;
    uint64_t fresh = 0;
    bool stub_return_requested = false;
    std::vector<Frame> frames;  // The branching frame resumes at its else arm.
    std::vector<Value> slots;
    machine::MachineState machine;
    std::vector<LabelInfo> labels;
  };

  // Pushes a frame running `code` and returns its slot base.
  int PushFrame(const Code& code, int ret);
  // Pushes a frame running `code` on `args`; its result is dropped.
  void Enter(const Code& code, const std::vector<Value>& args);
  // Pushes `callee`'s frame for the call `call` of the `caller` frame at
  // `base`: on the call's argument slots, returning into its dst.
  void EnterCall(const Code& callee, const Code& caller, const Insn& call, int base);
  // The values of `in`'s argument slots in the frame at `base`.
  void Gather(const Code& code, const Insn& in, int base, std::vector<Value>* out) const;
  // Pops the top frame and hands `value` to its caller; returns true when
  // that was the last frame.
  bool PopFrame(const Value& value);
  void CallExtern(const Code& code, const Insn& in, int base);
  void Emit(const Code& code, const Insn& in, int base);
  void PushChoice(sym::ExprRef cond, int else_pc);
  // One step of the interpreter phase (the top frame); returns true when it
  // finished the phase.
  bool StepInterpreter();
  bool FinishInterpreter(bool returned, bool bailed_out);

  EvalContext* ctx_;
  const ast::CompilerDecl* compiler_ = nullptr;
  std::vector<Frame> frames_;
  std::vector<Value> slots_;
  // Entries past num_choices_ are spent choice points kept for their storage.
  std::vector<ChoicePoint> choices_;
  size_t num_choices_ = 0;
  int forks_ = 0;
  std::vector<Value> call_args_;  // Arguments of the host handler being called.
};

}  // namespace icarus::exec

#endif  // ICARUS_EXEC_EVALUATOR_H_

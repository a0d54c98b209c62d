#include "src/exec/evaluator.h"

#include <algorithm>

#include "src/ast/printer.h"
#include "src/exec/code.h"
#include "src/support/failpoint.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"

namespace icarus::exec {

namespace {

constexpr int64_t kStepLimit = 2'000'000;
constexpr size_t kMaxEvents = 256;  // Event-log cap per path (recording only).
// Target instructions one interpreter phase may run (backward jumps are
// legal, so a stub can loop).
constexpr int kMaxInterpSteps = 4096;
constexpr int64_t kInt32Min = -2147483648LL;
constexpr int64_t kInt32Max = 2147483647LL;

sym::ExprRef Binary(sym::ExprPool& pool, ast::BinOp op, sym::ExprRef a, sym::ExprRef b) {
  switch (op) {
    case ast::BinOp::kAdd: return pool.Add(a, b);
    case ast::BinOp::kSub: return pool.Sub(a, b);
    case ast::BinOp::kMul: return pool.Mul(a, b);
    case ast::BinOp::kDiv: return pool.Div(a, b);
    case ast::BinOp::kMod: return pool.Mod(a, b);
    case ast::BinOp::kBitAnd: return pool.BitAnd(a, b);
    case ast::BinOp::kBitOr: return pool.BitOr(a, b);
    case ast::BinOp::kBitXor: return pool.BitXor(a, b);
    case ast::BinOp::kShl: return pool.Shl(a, b);
    case ast::BinOp::kShr: return pool.Shr(a, b);
    case ast::BinOp::kEq: return pool.Eq(a, b);
    case ast::BinOp::kNe: return pool.Ne(a, b);
    case ast::BinOp::kLt: return pool.Lt(a, b);
    case ast::BinOp::kLe: return pool.Le(a, b);
    case ast::BinOp::kGt: return pool.Gt(a, b);
    case ast::BinOp::kGe: return pool.Ge(a, b);
    case ast::BinOp::kLAnd: return pool.And(a, b);
    case ast::BinOp::kLOr: return pool.Or(a, b);
  }
  ICARUS_BUG("binary op");
}

}  // namespace

sym::Sort SortOf(const ast::Type* type) {
  switch (type->kind()) {
    case ast::TypeKind::kBool:
      return sym::Sort::kBool;
    case ast::TypeKind::kInt32:
    case ast::TypeKind::kInt64:
    case ast::TypeKind::kEnum:
      return sym::Sort::kInt;
    case ast::TypeKind::kDouble:
    case ast::TypeKind::kOpaque:
      return sym::Sort::kTerm;
    case ast::TypeKind::kVoid:
    case ast::TypeKind::kLabel:
      break;
  }
  ICARUS_BUG("type has no term sort");
}

// ---------------------------------------------------------------------------
// EmitState
// ---------------------------------------------------------------------------

Status EmitState::Bind(int label_id) {
  if (label_id < 0 || label_id >= static_cast<int>(labels.size())) {
    return Status::Error(StrCat("bind of invalid label ", label_id));
  }
  LabelInfo& info = labels[static_cast<size_t>(label_id)];
  if (info.is_failure) {
    return Status::Error("failure labels are pre-bound and cannot be rebound");
  }
  if (info.target != kLabelUnbound) {
    return Status::Error("label bound twice");
  }
  info.target = static_cast<int>(target.size());
  return Status::Ok();
}

Status EmitState::CheckAllBound() const {
  for (size_t i = 0; i < labels.size(); ++i) {
    if (!labels[i].is_failure && labels[i].target == kLabelUnbound) {
      return Status::Error(StrCat("label ", i, " left unbound at end of stub generation"));
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// ExternRegistry
// ---------------------------------------------------------------------------

void ExternRegistry::Register(const ast::Module& module, const std::string& name,
                              ExternHandler handler) {
  const ast::ExternFnDecl* ext = module.FindExtern(name);
  ICARUS_REQUIRE_MSG(ext != nullptr, StrCat("host handler for undeclared extern ", name));
  handlers_[ext] = std::move(handler);
}

std::vector<std::string> ExternRegistry::HostBoundNames() const {
  std::vector<std::string> names;
  names.reserve(handlers_.size());
  for (const auto& [ext, handler] : handlers_) {
    names.emplace_back(ext->name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

// ---------------------------------------------------------------------------
// EvalContext
// ---------------------------------------------------------------------------

EvalContext::EvalContext(const ast::Module* module, sym::ExprPool* pool,
                         const ExternRegistry* externs)
    : module_(module), pool_(pool), externs_(externs) {}

void EvalContext::Assume(sym::ExprRef cond) {
  if (cond->IsTrue()) {
    return;
  }
  path_condition_.push_back(cond);
}

sym::SolveResult EvalContext::SolveQuery(const std::vector<sym::ExprRef>& conjuncts,
                                         bool want_model) {
  ICARUS_REQUIRE_MSG(solver_ != nullptr, "symbolic query with no solver attached");
  WallTimer solve_timer;
  sym::SolveResult r = solver_->Solve(conjuncts, want_model);
  solver_seconds_ += solve_timer.ElapsedSeconds();
  return r;
}

bool EvalContext::PathFeasible() {
  for (sym::ExprRef c : path_condition_) {
    if (c->IsFalse()) {
      return false;
    }
  }
  if (abstract_mode_) {
    return true;
  }
  // Feasibility only needs the verdict; skipping the model keeps cache
  // entries for these queries cheap to produce. An undecided query (kUnknown)
  // keeps the path: only kUnsat proves it infeasible.
  return SolveQuery(path_condition_, /*want_model=*/false).verdict != sym::Verdict::kUnsat;
}

bool EvalContext::CheckAssert(sym::ExprRef cond, CheckLabel what, std::string_view fn,
                              int line) {
  if (status_ != PathStatus::kCompleted) {
    return false;
  }
  if (cond->IsTrue() || abstract_mode_) {
    return true;
  }
  // The query is the path condition plus the negated assertion.
  path_condition_.push_back(pool_->Not(cond));
  sym::SolveResult r = SolveQuery(path_condition_, /*want_model=*/true);
  path_condition_.pop_back();
  if (r.verdict == sym::Verdict::kUnsat) {
    // The assertion holds on every model of this path; keep it as a lemma.
    Assume(cond);
    if (recording_) {
      LogEvent(StrCat("assert ok: ", what(), "  [", fn, ":", line, "]"));
    }
    return true;
  }
  if (r.verdict == sym::Verdict::kUnknown) {
    status_ = PathStatus::kLimit;
    violation_.message = StrCat("solver limit while checking: ", what());
    violation_.function = fn;
    violation_.line = line;
    if (recording_) {
      LogEvent(StrCat("assert UNDECIDED (solver budget): ", what(), "  [", fn, ":", line, "]"));
    }
    return false;
  }
  status_ = PathStatus::kViolation;
  violation_.message = what();
  violation_.function = fn;
  violation_.line = line;
  // A solver with a cache hands back the text it rendered for the entry.
  violation_.model =
      r.model.rendered.empty() ? r.model.ToString() : std::move(r.model.rendered);
  // Witnesses are the structured form of the model: one concrete value per
  // named variable, pool-independent, consumed by counterexample reports
  // and the replay harness. The model was rendered above, so moving out of
  // it is safe.
  violation_.witnesses = std::move(r.model.witnesses);
  if (recording_) {
    LogEvent(StrCat("assert VIOLATED: ", violation_.message, "  [", fn, ":", line, "]"));
  }
  return false;
}

void EvalContext::FailPath(const std::string& message, std::string_view fn, int line) {
  if (status_ != PathStatus::kCompleted) {
    return;
  }
  status_ = PathStatus::kViolation;
  violation_.message = message;
  violation_.function = fn;
  violation_.line = line;
  if (recording_) {
    LogEvent(StrCat("path FAILED: ", message, "  [", fn, ":", line, "]"));
  }
}

void EvalContext::TakeBranch(sym::ExprRef cond, bool arm) {
  decisions_.push_back(arm);
  Assume(arm ? cond : pool_->Not(cond));
  if (recording_) {
    LogEvent(StrCat("branch #", decisions_.size() - 1, " ", arm ? "TRUE " : "FALSE", ": ",
                    sym::ExprPool::ToString(cond)));
  }
  if (!PathFeasible()) {
    status_ = PathStatus::kInfeasible;
    if (recording_) {
      LogEvent("path condition became infeasible; path abandoned");
    }
  }
}

void EvalContext::LogEvent(std::string event) {
  if (!recording_) {
    return;
  }
  if (events_.size() >= kMaxEvents) {
    ++events_dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

bool EvalContext::CountStep() {
  if (++steps_ > kStepLimit) {
    if (status_ == PathStatus::kCompleted) {
      status_ = PathStatus::kLimit;
      violation_.message = "step budget exhausted (possible non-terminating stub)";
    }
    return false;
  }
  return true;
}

Value EvalContext::FreshValue(std::string_view prefix, const ast::Type* type) {
  sym::ExprRef term = pool_->Fresh(prefix, SortOf(type));
  symbolic_inputs_.emplace_back(term->name, term);
  if (type->kind() == ast::TypeKind::kEnum) {
    int n = static_cast<int>(type->enum_decl()->members.size());
    Assume(pool_->Le(pool_->IntConst(0), term));
    Assume(pool_->Lt(term, pool_->IntConst(n)));
  } else if (type->kind() == ast::TypeKind::kInt32) {
    Assume(pool_->Le(pool_->IntConst(kInt32Min), term));
    Assume(pool_->Le(term, pool_->IntConst(kInt32Max)));
  }
  return Value::Of(type, term);
}

// ---------------------------------------------------------------------------
// Explorer: frames
// ---------------------------------------------------------------------------

void Explorer::Call(const ast::FunctionDecl* fn, const std::vector<Value>& args) {
  ICARUS_REQUIRE_MSG(frames_.empty(), "Explorer::Call on a path that is still running");
  Enter(Lowered(*fn), args);
}

void Explorer::Interpret(const ast::InterpreterDecl* interpreter) {
  ICARUS_REQUIRE_MSG(frames_.empty(), "Explorer::Interpret on a path that is still running");
  Frame& frame = frames_.emplace_back();
  frame.interpreter = interpreter;
  frame.base = static_cast<int>(slots_.size());
}

bool Explorer::interpreting() const {
  return !frames_.empty() && frames_.front().code == nullptr;
}

int Explorer::PushFrame(const Code& code, int ret) {
  const int base = static_cast<int>(slots_.size());
  slots_.resize(slots_.size() + static_cast<size_t>(code.num_slots));
  Frame& frame = frames_.emplace_back();
  frame.code = &code;
  frame.base = base;
  frame.ret = ret;
  return base;
}

void Explorer::Enter(const Code& code, const std::vector<Value>& args) {
  ICARUS_REQUIRE_MSG(args.size() == code.param_slots.size(),
                     StrCat("argument count mismatch calling ", code.name));
  const int base = PushFrame(code, /*ret=*/-1);
  for (size_t i = 0; i < args.size(); ++i) {
    slots_[static_cast<size_t>(base + code.param_slots[i])] = args[i];
  }
}

void Explorer::EnterCall(const Code& callee, const Code& caller, const Insn& call, int base) {
  const int callee_base = PushFrame(callee, base + call.dst);
  for (int i = 0; i < call.num_args; ++i) {
    slots_[static_cast<size_t>(callee_base + callee.param_slots[static_cast<size_t>(i)])] =
        slots_[static_cast<size_t>(base + caller.arg_slots[static_cast<size_t>(call.args + i)])];
  }
}

void Explorer::Gather(const Code& code, const Insn& in, int base, std::vector<Value>* out) const {
  out->clear();
  for (int i = 0; i < in.num_args; ++i) {
    out->push_back(
        slots_[static_cast<size_t>(base + code.arg_slots[static_cast<size_t>(in.args + i)])]);
  }
}

bool Explorer::PopFrame(const Value& value) {
  const Frame frame = frames_.back();
  frames_.pop_back();
  if (frame.ret >= 0) {
    slots_[static_cast<size_t>(frame.ret)] = value;
  }
  slots_.resize(static_cast<size_t>(frame.base));
  return frames_.empty();
}

// ---------------------------------------------------------------------------
// Explorer: the run loop
// ---------------------------------------------------------------------------

Explorer::Stop Explorer::Run(Value* result) {
  EvalContext& ctx = *ctx_;
  sym::ExprPool& pool = *ctx.pool_;
  while (ctx.status_ == PathStatus::kCompleted) {
    ICARUS_REQUIRE_MSG(!frames_.empty(), "Explorer::Run with no frame to run");
    if (frames_.back().code == nullptr) {
      if (StepInterpreter() && frames_.empty()) {
        return Stop::kInterpreted;
      }
      continue;
    }
    if (!ctx.CountStep()) {
      break;
    }
    Frame& frame = frames_.back();
    const Code& code = *frame.code;
    const Insn& in = code.insns[static_cast<size_t>(frame.pc++)];
    const int base = frame.base;
    // The frame's slots; valid until the next push.
    Value* s = slots_.data() + base;
    switch (in.op) {
      case Op::kInt:
        s[in.dst] = Value::Of(in.type, pool.IntConst(in.imm));
        break;
      case Op::kBool:
        s[in.dst] = Value::Of(in.type, in.imm != 0 ? pool.True() : pool.False());
        break;
      case Op::kMove:
        s[in.dst] = s[in.a];
        break;
      case Op::kNot:
        s[in.dst] = Value::Of(in.type, pool.Not(s[in.a].term));
        break;
      case Op::kNeg:
        s[in.dst] = Value::Of(in.type, pool.Neg(s[in.a].term));
        break;
      case Op::kBinary:
        s[in.dst] = Value::Of(in.type, Binary(pool, in.bin_op, s[in.a].term, s[in.b].term));
        break;
      case Op::kCall:
        EnterCall(Lowered(*in.fn), code, in, base);
        break;
      case Op::kCallExtern:
        CallExtern(code, in, base);
        break;
      case Op::kBranch: {
        const sym::ExprRef cond = s[in.a].term;
        if (cond->IsConst()) {
          if (!cond->IsTrue()) {
            frame.pc = in.target;
          }
          break;
        }
        PushChoice(cond, in.target);
        ctx.TakeBranch(cond, /*arm=*/true);
        break;
      }
      case Op::kJump:
        frame.pc = in.target;
        break;
      case Op::kAssert:
        ctx.CheckAssert(
            s[in.a].term, [&in] { return ast::PrintExpr(*in.stmt->expr); }, code.name,
            in.stmt->loc.line);
        break;
      case Op::kAssume: {
        const sym::ExprRef cond = s[in.a].term;
        ctx.Assume(cond);
        if (cond->IsFalse() || (!cond->IsConst() && !ctx.PathFeasible())) {
          ctx.status_ = PathStatus::kInfeasible;
        }
        break;
      }
      case Op::kEmit:
        Emit(code, in, base);
        break;
      case Op::kLabel: {
        const bool failure = in.stmt->kind == ast::StmtKind::kFailureLabel;
        s[in.dst] = Value::Label(ctx.module_->types().Label(),
                                 ctx.emits_.NewLabel(failure, in.stmt));
        break;
      }
      case Op::kBind: {
        ICARUS_REQUIRE_MSG(s[in.a].IsLabel(), "bind/goto target is not a label value");
        Status st = ctx.emits_.Bind(s[in.a].label_id);
        if (!st.ok()) {
          ctx.FailPath(st.message(), code.name, in.stmt->loc.line);
        }
        break;
      }
      case Op::kGoto: {
        ICARUS_REQUIRE_MSG(s[in.a].IsLabel(), "bind/goto target is not a label value");
        ICARUS_REQUIRE_MSG(frames_.size() >= 2 && frames_[frames_.size() - 2].code == nullptr,
                           "goto escaped an interpreter callback");
        frames_[frames_.size() - 2].goto_label = s[in.a].label_id;
        PopFrame(Value());
        break;
      }
      case Op::kReturn: {
        const Value value = in.a >= 0 ? s[in.a] : Value::Void(ctx.module_->types().Void());
        if (PopFrame(value)) {
          *result = value;
          return Stop::kReturned;
        }
        break;
      }
      case Op::kRequire: {
        const ast::Expr& clause = *code.ext->contracts[static_cast<size_t>(in.imm)].expr;
        ctx.CheckAssert(
            s[in.a].term,
            [&] { return StrCat("requires of ", code.name, ": ", ast::PrintExpr(clause)); },
            code.name, clause.loc.line);
        break;
      }
      case Op::kApply: {
        // Deterministic function: the result is the UF application over the
        // argument terms, giving congruence across repeated calls.
        const ast::ExternFnDecl& ext = *code.ext;
        app_terms_.clear();
        for (int slot : code.param_slots) {
          app_terms_.push_back(s[slot].term);
        }
        const sym::ExprRef term = pool.App(ext.name, app_terms_, SortOf(ext.return_type));
        s[in.dst] = Value::Of(ext.return_type, term);
        if (ext.return_type->kind() == ast::TypeKind::kEnum) {
          int n = static_cast<int>(ext.return_type->enum_decl()->members.size());
          ctx.Assume(pool.Le(pool.IntConst(0), term));
          ctx.Assume(pool.Lt(term, pool.IntConst(n)));
        }
        break;
      }
      case Op::kEnsure:
        ctx.Assume(s[in.a].term);
        break;
    }
  }
  return Stop::kEnded;
}

void Explorer::CallExtern(const Code& code, const Insn& in, int base) {
  ICARUS_FAILPOINT(failpoint::kExternCall);
  const ast::ExternFnDecl* ext = in.ext;
  // Host-bound externs (register allocator, machine state).
  if (const ExternHandler* handler = ctx_->externs_->Find(ext)) {
    Gather(code, in, base, &call_args_);
    StatusOr<Value> result = (*handler)(*ctx_, call_args_);
    if (!result.ok()) {
      ctx_->FailPath(result.status().message(), ext->name, ext->loc.line);
      return;
    }
    slots_[static_cast<size_t>(base + in.dst)] = result.take();
    return;
  }
  // Pure uninterpreted semantics: a frame runs the contract.
  EnterCall(LoweredContract(*ext), code, in, base);
}

void Explorer::Emit(const Code& code, const Insn& in, int base) {
  EvalContext& ctx = *ctx_;
  EmitState& emits = ctx.emits_;
  Instr instr;
  instr.op = in.stmt->emit_op;
  Gather(code, in, base, &instr.args);
  instr.emit_site = in.stmt;
  // Compiler callbacks append to the target buffer; generators/helpers
  // record the source-level instruction and run its compiler callback (the
  // streaming meta-stub of Figure 3).
  if (code.fn->fn_kind == ast::FnKind::kCompilerOp) {
    if (!emits.source_trace.empty()) {
      instr.source_op = emits.source_trace.back().op;
      instr.source_index = static_cast<int>(emits.source_trace.size()) - 1;
    }
    if (ctx.recording_) {
      ctx.LogEvent(StrCat("emit target[", emits.target.size(), "]: ", instr.op->name,
                          "  (compiling ",
                          instr.source_op != nullptr ? instr.source_op->name : "<none>", ")"));
    }
    emits.target.push_back(std::move(instr));
    return;
  }
  if (ctx.recording_) {
    ctx.LogEvent(StrCat("emit source[", emits.source_trace.size(), "]: ", instr.op->name));
  }
  emits.source_trace.push_back(std::move(instr));
  if (compiler_ == nullptr) {
    return;
  }
  const Instr& emitted = emits.source_trace.back();
  const ast::FunctionDecl* cb = compiler_->FindCallback(emitted.op);
  if (cb == nullptr) {
    ctx.FailPath(StrCat("no compiler callback for source op ", emitted.op->name), code.name,
                 in.stmt->loc.line);
    return;
  }
  Enter(Lowered(*cb), emitted.args);
}

// ---------------------------------------------------------------------------
// Explorer: the interpreter phase
// ---------------------------------------------------------------------------

bool Explorer::StepInterpreter() {
  EvalContext& ctx = *ctx_;
  const std::vector<Instr>& target = ctx.emits_.target;
  Frame& frame = frames_.back();
  if (frame.in_callback) {
    frame.in_callback = false;
    if (ctx.stub_return_requested) {
      ctx.stub_return_requested = false;
      return FinishInterpreter(/*returned=*/true, /*bailed_out=*/false);
    }
    if (frame.goto_label >= 0) {
      const LabelInfo& label = ctx.emits_.labels[static_cast<size_t>(frame.goto_label)];
      if (label.is_failure) {
        return FinishInterpreter(/*returned=*/false, /*bailed_out=*/true);
      }
      if (label.target == kLabelUnbound) {
        ctx.FailPath("jump to an unbound label", "<interpreter>", 0);
        return false;
      }
      frame.pc = label.target;
    } else {
      ++frame.pc;
    }
  }
  if (frame.pc >= static_cast<int>(target.size())) {
    return FinishInterpreter(/*returned=*/false, /*bailed_out=*/false);
  }
  if (++frame.steps > kMaxInterpSteps) {
    ctx.FailPath("interpreter step limit exceeded (runaway stub control flow)", "<interpreter>",
                 0);
    return false;
  }
  const Instr& instr = target[static_cast<size_t>(frame.pc)];
  const ast::FunctionDecl* cb = frame.interpreter->FindCallback(instr.op);
  if (cb == nullptr) {
    ctx.FailPath(StrCat("no interpreter semantics for target op ", instr.op->name),
                 "<interpreter>", 0);
    return false;
  }
  frame.in_callback = true;
  frame.goto_label = -1;
  Enter(Lowered(*cb), instr.args);
  return false;
}

bool Explorer::FinishInterpreter(bool returned, bool bailed_out) {
  EvalContext& ctx = *ctx_;
  // Exit invariants (§4.2): the native stack must be balanced and saved
  // registers restored on *every* exit, including bail-outs.
  Status stack = ctx.machine_.CheckStackBalanced(bailed_out ? "bail-out" : "stub exit");
  if (!stack.ok()) {
    ctx.FailPath(stack.message(), "<interpreter>", 0);
    return false;
  }
  // On a successful IC return the output register must hold a boxed Value.
  if (returned) {
    StatusOr<machine::RegVal> out = ctx.machine_.ReadReg(
        machine::MachineState::OutputReg(), machine::RegContent::kValue, "stub exit");
    if (!out.ok()) {
      ctx.FailPath(out.status().message(), "<interpreter>", 0);
      return false;
    }
  }
  frames_.pop_back();
  return true;
}

// ---------------------------------------------------------------------------
// Explorer: choice points
// ---------------------------------------------------------------------------

void Explorer::PushChoice(sym::ExprRef cond, int else_pc) {
  const EvalContext& ctx = *ctx_;
  if (num_choices_ == choices_.size()) {
    choices_.emplace_back();
  }
  ChoicePoint& choice = choices_[num_choices_++];
  ++forks_;
  choice.cond = cond;
  choice.path_condition = ctx.path_condition_.size();
  choice.symbolic_inputs = ctx.symbolic_inputs_.size();
  choice.events = ctx.events_.size();
  choice.source_trace = ctx.emits_.source_trace.size();
  choice.target = ctx.emits_.target.size();
  choice.decisions = ctx.decisions_.size();
  choice.events_dropped = ctx.events_dropped_;
  choice.steps = ctx.steps_;
  choice.fresh = ctx.pool_->fresh_mark();
  choice.stub_return_requested = ctx.stub_return_requested;
  // Assignment keeps the storage of the choice point that used this entry
  // before.
  choice.frames = frames_;
  choice.frames.back().pc = else_pc;
  choice.slots = slots_;
  choice.machine = ctx.machine_;
  choice.labels = ctx.emits_.labels;
}

bool Explorer::Backtrack() {
  if (num_choices_ == 0) {
    return false;
  }
  EvalContext& ctx = *ctx_;
  ChoicePoint& choice = choices_[--num_choices_];
  ctx.path_condition_.resize(choice.path_condition);
  ctx.symbolic_inputs_.resize(choice.symbolic_inputs);
  ctx.events_.resize(choice.events);
  ctx.emits_.source_trace.resize(choice.source_trace);
  ctx.emits_.target.resize(choice.target);
  ctx.decisions_.resize(choice.decisions);
  ctx.events_dropped_ = choice.events_dropped;
  ctx.steps_ = choice.steps;
  ctx.pool_->RewindFresh(choice.fresh);
  ctx.stub_return_requested = choice.stub_return_requested;
  ctx.status_ = PathStatus::kCompleted;
  ctx.violation_ = Violation();
  // Swapping leaves the abandoned path's storage in the spent entry.
  frames_.swap(choice.frames);
  slots_.swap(choice.slots);
  std::swap(ctx.machine_, choice.machine);
  ctx.emits_.labels.swap(choice.labels);
  ctx.TakeBranch(choice.cond, /*arm=*/false);
  return true;
}

}  // namespace icarus::exec

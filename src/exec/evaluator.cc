#include "src/exec/evaluator.h"

#include "src/ast/printer.h"
#include "src/support/failpoint.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"

namespace icarus::exec {

namespace {

constexpr int64_t kStepLimit = 2'000'000;
constexpr int64_t kInt32Min = -2147483648LL;
constexpr int64_t kInt32Max = 2147483647LL;

struct ExecEnv {
  const ast::FunctionDecl* fn = nullptr;
  std::vector<Value> slots;
  Value ret;
  int goto_label = -1;
};

enum class Flow { kNormal, kReturn, kGoto, kAbort };

Flow ExecBlock(EvalContext& ctx, ExecEnv& env, const std::vector<ast::StmtPtr>& block);
Value EvalExpr(EvalContext& ctx, ExecEnv& env, const ast::Expr& expr);

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
  // Forced-prefix replay: while re-executing the shared prefix of a forked
  // trace (deterministic re-execution — same conditions, same path
  // condition), every feasibility question was already answered by the
  // execution that enqueued this trace, and it answered "continue" (it only
  // proceeds past a branch when PathFeasible returned true). Skipping the
  // repeat query is what makes exploration cost O(tree edges) solver work
  // instead of O(paths * depth). The flip decision itself (trace_pos_ ==
  // trace_.size()) and everything after it are new territory and are checked.
  if (trace_pos_ < trace_.size()) {
    return true;
  }
  // Feasibility only needs the verdict; skipping the model keeps cache
  // entries for these queries cheap to produce. An undecided query (kUnknown)
  // keeps the path: only kUnsat proves it infeasible.
  return SolveQuery(path_condition_, /*want_model=*/false).verdict != sym::Verdict::kUnsat;
}

bool EvalContext::CheckAssert(sym::ExprRef cond, const std::string& what,
                              const std::string& fn, int line) {
  if (status_ != PathStatus::kCompleted) {
    return false;
  }
  if (cond->IsTrue() || abstract_mode_) {
    return true;
  }
  // Forced-prefix replay (see PathFeasible): an assert inside the forced
  // prefix passed on the execution that enqueued this trace — it aborts the
  // path on any other verdict, and this trace replays the identical prefix.
  // Re-assume the proven lemma (the parent did, and later queries on this
  // path must see the same path condition) and skip the repeat query.
  if (trace_pos_ < trace_.size()) {
    Assume(cond);
    if (recording_) {
      LogEvent(StrCat("assert ok (prefix replay): ", what, "  [", fn, ":", line, "]"));
    }
    return true;
  }
  std::vector<sym::ExprRef> query = path_condition_;
  query.push_back(pool_->Not(cond));
  sym::SolveResult r = SolveQuery(query, /*want_model=*/true);
  if (r.verdict == sym::Verdict::kUnsat) {
    // The assertion holds on every model of this path; keep it as a lemma.
    Assume(cond);
    if (recording_) {
      LogEvent(StrCat("assert ok: ", what, "  [", fn, ":", line, "]"));
    }
    return true;
  }
  if (r.verdict == sym::Verdict::kUnknown) {
    status_ = PathStatus::kLimit;
    violation_.message = StrCat("solver limit while checking: ", what);
    violation_.function = fn;
    violation_.line = line;
    if (recording_) {
      LogEvent(StrCat("assert UNDECIDED (solver budget): ", what, "  [", fn, ":", line, "]"));
    }
    return false;
  }
  status_ = PathStatus::kViolation;
  violation_.message = what;
  violation_.function = fn;
  violation_.line = line;
  violation_.model = r.model.ToString();
  // Witnesses are the structured form of the model: one concrete value per
  // named variable, pool-independent, consumed by counterexample reports
  // and the replay harness. The model was rendered above, so moving out of
  // it is safe.
  violation_.witnesses = std::move(r.model.witnesses);
  if (recording_) {
    LogEvent(StrCat("assert VIOLATED: ", what, "  [", fn, ":", line, "]"));
  }
  return false;
}

void EvalContext::FailPath(const std::string& message, const std::string& fn, int line) {
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

bool EvalContext::DecideBranch(sym::ExprRef cond, bool* ok) {
  *ok = true;
  if (cond->IsConst()) {
    return cond->IsTrue();
  }
  bool decision;
  if (trace_pos_ < trace_.size()) {
    decision = trace_[trace_pos_];
  } else {
    decision = true;
    trace_.push_back(true);
    // Register the sibling path: same prefix, opposite final decision.
    std::vector<bool> alt(trace_.begin(), trace_.begin() + static_cast<long>(trace_pos_));
    alt.push_back(false);
    pending_alternatives_.push_back(std::move(alt));
  }
  ++trace_pos_;
  Assume(decision ? cond : pool_->Not(cond));
  if (recording_) {
    LogEvent(StrCat("branch #", trace_pos_ - 1, " ", decision ? "TRUE " : "FALSE", ": ",
                    sym::ExprPool::ToString(cond)));
  }
  if (!PathFeasible()) {
    status_ = PathStatus::kInfeasible;
    if (recording_) {
      LogEvent("path condition became infeasible; path abandoned");
    }
    *ok = false;
  }
  return decision;
}

void EvalContext::LogEvent(std::string event) {
  if (!recording_) {
    return;
  }
  if (events_.size() >= max_events_) {
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

Value EvalContext::FreshValue(const std::string& prefix, const ast::Type* type) {
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
// Expression evaluation
// ---------------------------------------------------------------------------

namespace {

Value EvalBinary(EvalContext& ctx, const ast::Expr& expr, const Value& lhs, const Value& rhs) {
  sym::ExprPool& pool = ctx.pool();
  sym::ExprRef a = lhs.term;
  sym::ExprRef b = rhs.term;
  switch (expr.bin_op) {
    case ast::BinOp::kAdd: return Value::Of(expr.type, pool.Add(a, b));
    case ast::BinOp::kSub: return Value::Of(expr.type, pool.Sub(a, b));
    case ast::BinOp::kMul: return Value::Of(expr.type, pool.Mul(a, b));
    case ast::BinOp::kDiv: return Value::Of(expr.type, pool.Div(a, b));
    case ast::BinOp::kMod: return Value::Of(expr.type, pool.Mod(a, b));
    case ast::BinOp::kBitAnd: return Value::Of(expr.type, pool.BitAnd(a, b));
    case ast::BinOp::kBitOr: return Value::Of(expr.type, pool.BitOr(a, b));
    case ast::BinOp::kBitXor: return Value::Of(expr.type, pool.BitXor(a, b));
    case ast::BinOp::kShl: return Value::Of(expr.type, pool.Shl(a, b));
    case ast::BinOp::kShr: return Value::Of(expr.type, pool.Shr(a, b));
    case ast::BinOp::kEq: return Value::Of(expr.type, pool.Eq(a, b));
    case ast::BinOp::kNe: return Value::Of(expr.type, pool.Ne(a, b));
    case ast::BinOp::kLt: return Value::Of(expr.type, pool.Lt(a, b));
    case ast::BinOp::kLe: return Value::Of(expr.type, pool.Le(a, b));
    case ast::BinOp::kGt: return Value::Of(expr.type, pool.Gt(a, b));
    case ast::BinOp::kGe: return Value::Of(expr.type, pool.Ge(a, b));
    case ast::BinOp::kLAnd: return Value::Of(expr.type, pool.And(a, b));
    case ast::BinOp::kLOr: return Value::Of(expr.type, pool.Or(a, b));
  }
  ICARUS_BUG("binary op");
}

Value EvalExpr(EvalContext& ctx, ExecEnv& env, const ast::Expr& expr) {
  if (ctx.status() != PathStatus::kCompleted) {
    return Value{};
  }
  if (!ctx.CountStep()) {
    return Value{};
  }
  switch (expr.kind) {
    case ast::ExprKind::kIntLit:
      return Value::Of(expr.type, ctx.pool().IntConst(expr.int_val));
    case ast::ExprKind::kBoolLit:
      return Value::Of(expr.type, ctx.pool().BoolConst(expr.bool_val));
    case ast::ExprKind::kEnumLit:
      return Value::Of(expr.type, ctx.pool().IntConst(expr.enum_index));
    case ast::ExprKind::kVar:
      return env.slots[static_cast<size_t>(expr.var_slot)];
    case ast::ExprKind::kUnary: {
      Value v = EvalExpr(ctx, env, *expr.args[0]);
      if (ctx.status() != PathStatus::kCompleted) {
        return Value{};
      }
      if (expr.un_op == ast::UnOp::kNot) {
        return Value::Of(expr.type, ctx.pool().Not(v.term));
      }
      return Value::Of(expr.type, ctx.pool().Neg(v.term));
    }
    case ast::ExprKind::kBinary: {
      // Note: no short-circuiting — both operands are evaluated eagerly and
      // combined as terms. Platform code keeps logical operands effect-free.
      Value lhs = EvalExpr(ctx, env, *expr.args[0]);
      if (ctx.status() != PathStatus::kCompleted) {
        return Value{};
      }
      Value rhs = EvalExpr(ctx, env, *expr.args[1]);
      if (ctx.status() != PathStatus::kCompleted) {
        return Value{};
      }
      return EvalBinary(ctx, expr, lhs, rhs);
    }
    case ast::ExprKind::kCall: {
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const ast::ExprPtr& a : expr.args) {
        args.push_back(EvalExpr(ctx, env, *a));
        if (ctx.status() != PathStatus::kCompleted) {
          return Value{};
        }
      }
      if (expr.callee_fn != nullptr) {
        return Evaluator::RunFunction(ctx, expr.callee_fn, std::move(args));
      }
      ICARUS_REQUIRE_MSG(expr.callee_ext != nullptr, "call resolved to neither a function nor an extern");
      return Evaluator::CallExtern(ctx, expr.callee_ext, std::move(args));
    }
  }
  ICARUS_BUG("expr kind");
}

// ---------------------------------------------------------------------------
// Statement execution
// ---------------------------------------------------------------------------

Flow ExecStmt(EvalContext& ctx, ExecEnv& env, const ast::Stmt& stmt) {
  if (ctx.status() != PathStatus::kCompleted || !ctx.CountStep()) {
    return Flow::kAbort;
  }
  const std::string& fn_name = env.fn->name;
  switch (stmt.kind) {
    case ast::StmtKind::kLet:
    case ast::StmtKind::kAssign: {
      Value v = EvalExpr(ctx, env, *stmt.expr);
      if (ctx.status() != PathStatus::kCompleted) {
        return Flow::kAbort;
      }
      env.slots[static_cast<size_t>(stmt.var_slot)] = v;
      return Flow::kNormal;
    }
    case ast::StmtKind::kIf: {
      Value cond = EvalExpr(ctx, env, *stmt.expr);
      if (ctx.status() != PathStatus::kCompleted) {
        return Flow::kAbort;
      }
      bool ok = true;
      bool taken = ctx.DecideBranch(cond.term, &ok);
      if (!ok) {
        return Flow::kAbort;
      }
      return ExecBlock(ctx, env, taken ? stmt.then_block : stmt.else_block);
    }
    case ast::StmtKind::kAssert: {
      Value cond = EvalExpr(ctx, env, *stmt.expr);
      if (ctx.status() != PathStatus::kCompleted) {
        return Flow::kAbort;
      }
      if (!ctx.CheckAssert(cond.term, ast::PrintExpr(*stmt.expr), fn_name, stmt.loc.line)) {
        return Flow::kAbort;
      }
      return Flow::kNormal;
    }
    case ast::StmtKind::kAssume: {
      Value cond = EvalExpr(ctx, env, *stmt.expr);
      if (ctx.status() != PathStatus::kCompleted) {
        return Flow::kAbort;
      }
      ctx.Assume(cond.term);
      if (cond.term->IsFalse() || (!cond.term->IsConst() && !ctx.PathFeasible())) {
        ctx.set_status(PathStatus::kInfeasible);
        return Flow::kAbort;
      }
      return Flow::kNormal;
    }
    case ast::StmtKind::kEmit: {
      std::vector<Value> args;
      args.reserve(stmt.args.size());
      for (const ast::ExprPtr& a : stmt.args) {
        args.push_back(EvalExpr(ctx, env, *a));
        if (ctx.status() != PathStatus::kCompleted) {
          return Flow::kAbort;
        }
      }
      Instr instr;
      instr.op = stmt.emit_op;
      instr.args = std::move(args);
      instr.emit_site = &stmt;
      // Compiler callbacks append to the target buffer; generators/helpers
      // record the source-level instruction and invoke the hook (which runs
      // the compiler callback — the streaming meta-stub of Figure 3).
      if (env.fn->fn_kind == ast::FnKind::kCompilerOp) {
        if (!ctx.emits().source_trace.empty()) {
          instr.source_op = ctx.emits().source_trace.back().op;
          instr.source_index = static_cast<int>(ctx.emits().source_trace.size()) - 1;
        }
        if (ctx.recording()) {
          ctx.LogEvent(StrCat("emit target[", ctx.emits().target.size(), "]: ",
                              instr.op->name, "  (compiling ",
                              instr.source_op != nullptr ? instr.source_op->name : "<none>",
                              ")"));
        }
        ctx.emits().target.push_back(std::move(instr));
      } else {
        if (ctx.recording()) {
          ctx.LogEvent(StrCat("emit source[", ctx.emits().source_trace.size(), "]: ",
                              instr.op->name));
        }
        ctx.emits().source_trace.push_back(instr);
        if (ctx.source_hook() != nullptr) {
          Status st = ctx.source_hook()(ctx, ctx.emits().source_trace.back());
          if (!st.ok()) {
            ctx.FailPath(st.message(), fn_name, stmt.loc.line);
            return Flow::kAbort;
          }
          if (ctx.status() != PathStatus::kCompleted) {
            return Flow::kAbort;
          }
        }
      }
      return Flow::kNormal;
    }
    case ast::StmtKind::kLabelDecl: {
      int id = ctx.emits().NewLabel(/*is_failure=*/false, &stmt);
      env.slots[static_cast<size_t>(stmt.var_slot)] =
          Value::Label(ctx.module().types().Label(), id);
      return Flow::kNormal;
    }
    case ast::StmtKind::kFailureLabel: {
      int id = ctx.emits().NewLabel(/*is_failure=*/true, &stmt);
      env.slots[static_cast<size_t>(stmt.var_slot)] =
          Value::Label(ctx.module().types().Label(), id);
      return Flow::kNormal;
    }
    case ast::StmtKind::kBind: {
      const Value& label = env.slots[static_cast<size_t>(stmt.var_slot)];
      ICARUS_REQUIRE_MSG(label.IsLabel(), "bind/goto target is not a label value");
      Status st = ctx.emits().Bind(label.label_id);
      if (!st.ok()) {
        ctx.FailPath(st.message(), fn_name, stmt.loc.line);
        return Flow::kAbort;
      }
      return Flow::kNormal;
    }
    case ast::StmtKind::kGoto: {
      const Value& label = env.slots[static_cast<size_t>(stmt.var_slot)];
      ICARUS_REQUIRE_MSG(label.IsLabel(), "bind/goto target is not a label value");
      env.goto_label = label.label_id;
      return Flow::kGoto;
    }
    case ast::StmtKind::kReturn: {
      if (stmt.expr != nullptr) {
        env.ret = EvalExpr(ctx, env, *stmt.expr);
        if (ctx.status() != PathStatus::kCompleted) {
          return Flow::kAbort;
        }
      }
      return Flow::kReturn;
    }
    case ast::StmtKind::kExprStmt: {
      EvalExpr(ctx, env, *stmt.expr);
      return ctx.status() == PathStatus::kCompleted ? Flow::kNormal : Flow::kAbort;
    }
  }
  ICARUS_BUG("stmt kind");
}

Flow ExecBlock(EvalContext& ctx, ExecEnv& env, const std::vector<ast::StmtPtr>& block) {
  for (const ast::StmtPtr& stmt : block) {
    Flow flow = ExecStmt(ctx, env, *stmt);
    if (flow != Flow::kNormal) {
      return flow;
    }
  }
  return Flow::kNormal;
}

}  // namespace

// ---------------------------------------------------------------------------
// Evaluator entry points
// ---------------------------------------------------------------------------

Value Evaluator::RunFunction(EvalContext& ctx, const ast::FunctionDecl* fn,
                             std::vector<Value> args) {
  ICARUS_REQUIRE_MSG(args.size() == fn->params.size(),
                     StrCat("argument count mismatch calling ", fn->name));
  ExecEnv env;
  env.fn = fn;
  env.slots.resize(static_cast<size_t>(fn->num_slots));
  for (size_t i = 0; i < args.size(); ++i) {
    env.slots[static_cast<size_t>(fn->params[i].slot)] = std::move(args[i]);
  }
  Flow flow = ExecBlock(ctx, env, fn->body);
  ICARUS_REQUIRE_MSG(flow != Flow::kGoto, "goto escaped a non-interpreter function");
  if (env.ret.type == nullptr) {
    env.ret = Value::Void(ctx.module().types().Void());
  }
  return env.ret;
}

Value Evaluator::CallExtern(EvalContext& ctx, const ast::ExternFnDecl* ext,
                            std::vector<Value> args) {
  if (ctx.status() != PathStatus::kCompleted) {
    return Value{};
  }
  ICARUS_FAILPOINT(failpoint::kExternCall);
  // Host-bound externs (register allocator, machine state, VM runtime).
  const ExternHandler* handler = ctx.externs_->Find(ext->name);
  if (handler != nullptr) {
    StatusOr<Value> result = (*handler)(ctx, args);
    if (!result.ok()) {
      ctx.FailPath(result.status().message(), ext->name, ext->loc.line);
      return Value{};
    }
    return result.take();
  }
  // Pure uninterpreted semantics with contracts. Build a frame over the
  // extern's parameter slots (plus `result`).
  ExecEnv contract_env;
  // Name holder for diagnostics. thread_local: contexts on different worker
  // threads evaluate extern contracts concurrently.
  thread_local ast::FunctionDecl dummy_fn;
  dummy_fn.name = ext->name;
  contract_env.fn = &dummy_fn;
  contract_env.slots.resize(static_cast<size_t>(ext->num_slots));
  for (size_t i = 0; i < args.size(); ++i) {
    contract_env.slots[static_cast<size_t>(ext->params[i].slot)] = args[i];
  }
  // Check preconditions.
  for (const ast::ContractClause& clause : ext->contracts) {
    if (!clause.is_requires) {
      continue;
    }
    Value cond = EvalExpr(ctx, contract_env, *clause.expr);
    if (ctx.status() != PathStatus::kCompleted) {
      return Value{};
    }
    if (!ctx.CheckAssert(cond.term,
                         StrCat("requires of ", ext->name, ": ",
                                ast::PrintExpr(*clause.expr)),
                         ext->name, clause.expr->loc.line)) {
      return Value{};
    }
  }
  Value result = Value::Void(ctx.module().types().Void());
  if (ext->return_type->kind() != ast::TypeKind::kVoid) {
    // Deterministic function: the result is the UF application over the
    // argument terms, giving congruence across repeated calls.
    std::vector<sym::ExprRef> terms;
    terms.reserve(args.size());
    for (const Value& a : args) {
      terms.push_back(a.term);
    }
    sym::ExprRef term = ctx.pool().App(ext->name, std::move(terms), SortOf(ext->return_type));
    result = Value::Of(ext->return_type, term);
    if (ext->return_type->kind() == ast::TypeKind::kEnum) {
      int n = static_cast<int>(ext->return_type->enum_decl()->members.size());
      ctx.Assume(ctx.pool().Le(ctx.pool().IntConst(0), term));
      ctx.Assume(ctx.pool().Lt(term, ctx.pool().IntConst(n)));
    }
    // Bind `result` for ensures clauses (slot after the params).
    contract_env.slots[static_cast<size_t>(ext->params.size())] = result;
  }
  for (const ast::ContractClause& clause : ext->contracts) {
    if (clause.is_requires) {
      continue;
    }
    Value cond = EvalExpr(ctx, contract_env, *clause.expr);
    if (ctx.status() != PathStatus::kCompleted) {
      return Value{};
    }
    ctx.Assume(cond.term);
  }
  return result;
}

void Evaluator::RunInterpreterOp(EvalContext& ctx, const ast::FunctionDecl* cb,
                                 const Instr& instr, int* out_goto_label) {
  *out_goto_label = -1;
  ExecEnv env;
  env.fn = cb;
  env.slots.resize(static_cast<size_t>(cb->num_slots));
  ICARUS_REQUIRE_MSG(instr.args.size() == cb->params.size(),
                     StrCat("operand count mismatch for interpreter op ", cb->name));
  for (size_t i = 0; i < instr.args.size(); ++i) {
    env.slots[static_cast<size_t>(cb->params[i].slot)] = instr.args[i];
  }
  Flow flow = ExecBlock(ctx, env, cb->body);
  if (flow == Flow::kGoto) {
    *out_goto_label = env.goto_label;
  }
}

}  // namespace icarus::exec

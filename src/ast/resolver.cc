#include "src/ast/resolver.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/support/check.h"
#include "src/support/str_util.h"

namespace icarus::ast {

namespace {

class ResolverImpl {
 public:
  explicit ResolverImpl(Module* module) : module_(module) {}

  Status Run() {
    ICARUS_RETURN_IF_ERROR(IndexNames());
    ICARUS_RETURN_IF_ERROR(ResolveSignatures());
    ICARUS_RETURN_IF_ERROR(ResolveBodies());
    ICARUS_RETURN_IF_ERROR(CheckNonRecursive());
    return Status::Ok();
  }

 private:
  static Status Err(SrcLoc loc, const std::string& msg) {
    return Status::Error(
        StrFormat("resolve error at line %d, col %d: %s", loc.line, loc.col, msg.c_str()));
  }

  // The References of the declaration being resolved, in lists that are
  // reused from one declaration to the next; CommitReferences copies them
  // into the arena at their exact size.
  struct PendingReferences {
    std::vector<References::Call> calls;
    std::vector<const OpDecl*> emits;
    std::vector<const EnumDecl*> enums;
  };

  // Adds `item` to a References list unless it is there already.
  template <typename T>
  static void Reference(std::vector<T>* list, T item) {
    if (std::find(list->begin(), list->end(), item) == list->end()) {
      list->push_back(item);
    }
  }

  static void ReferenceParamEnums(std::span<const Param> params, PendingReferences* refs) {
    for (const Param& p : params) {
      if (p.type->kind() == TypeKind::kEnum) {
        Reference(&refs->enums, p.type->enum_decl());
      }
    }
  }

  // Starts recording the references of a declaration with `params`.
  void BeginReferences(std::span<const Param> params) {
    pending_.calls.clear();
    pending_.emits.clear();
    pending_.enums.clear();
    ReferenceParamEnums(params, &pending_);
  }

  References CommitReferences() {
    Arena& arena = module_->arena();
    References refs;
    refs.calls = arena.Copy(std::span<const References::Call>(pending_.calls));
    refs.emits = arena.Copy(std::span<const OpDecl* const>(pending_.emits));
    refs.enums = arena.Copy(std::span<const EnumDecl* const>(pending_.enums));
    return refs;
  }

  const Type* LookupType(std::string_view name) { return module_->types().Lookup(name); }

  Status ResolveParamTypes(std::span<Param> params, SrcLoc loc) {
    for (Param& p : params) {
      if (p.is_label) {
        p.type = module_->types().Label();
      } else {
        p.type = LookupType(p.type_name);
        if (p.type == nullptr) {
          return Err(loc, StrCat("unknown type '", p.type_name, "'"));
        }
        if (p.type->kind() == TypeKind::kVoid || p.type->kind() == TypeKind::kLabel) {
          return Err(loc, StrCat("invalid parameter type '", p.type_name, "'"));
        }
      }
    }
    return Status::Ok();
  }

  // --- Phase 0: name tables -------------------------------------------------

  // Fills the module's function and extern tables, which every later call
  // lookup reads; a second declaration of a name is an error, not a shadow.
  Status IndexNames() {
    module_->functions_by_name.Clear();
    module_->functions_by_name.Reserve(module_->functions.size());
    module_->externs_by_name.Clear();
    module_->externs_by_name.Reserve(module_->externs.size());
    for (const auto& fn : module_->functions) {
      if (!module_->functions_by_name.Insert(fn->name, fn.get())) {
        return Err(fn->loc, StrCat("duplicate function '", fn->name, "'"));
      }
    }
    for (const auto& ext : module_->externs) {
      if (!module_->externs_by_name.Insert(ext->name, ext.get())) {
        return Err(ext->loc, StrCat("duplicate extern '", ext->name, "'"));
      }
    }
    return Status::Ok();
  }

  // --- Phase 1: signatures --------------------------------------------------

  Status ResolveSignatures() {
    // Language ops.
    for (auto& lang : module_->languages) {
      for (auto& op : lang->ops) {
        ICARUS_RETURN_IF_ERROR(ResolveParamTypes(op->params, op->loc));
        BeginReferences(op->params);
        op->refs = CommitReferences();
      }
    }
    // Externs.
    for (auto& ext : module_->externs) {
      ICARUS_RETURN_IF_ERROR(ResolveParamTypes(ext->params, ext->loc));
      for (const Param& p : ext->params) {
        if (p.is_label) {
          return Err(ext->loc, "extern functions cannot take label parameters");
        }
      }
      if (ext->return_type_name.empty()) {
        ext->return_type = module_->types().Void();
      } else {
        ext->return_type = LookupType(ext->return_type_name);
        if (ext->return_type == nullptr) {
          return Err(ext->loc, StrCat("unknown return type '", ext->return_type_name, "'"));
        }
      }
    }
    // Functions.
    for (auto& fn : module_->functions) {
      ICARUS_RETURN_IF_ERROR(ResolveFunctionSignature(fn.get()));
    }
    // Compilers.
    for (auto& comp : module_->compilers) {
      comp->source_language = module_->FindLanguage(comp->source_language_name);
      comp->target_language = module_->FindLanguage(comp->target_language_name);
      if (comp->source_language == nullptr || comp->target_language == nullptr) {
        return Err(comp->loc, StrCat("compiler ", comp->name, ": unknown language"));
      }
      comp->by_op.assign(comp->source_language->ops.size(), nullptr);
      for (auto& cb : comp->op_callbacks) {
        const OpDecl* op = comp->source_language->FindOp(cb->name);
        if (op == nullptr) {
          return Err(cb->loc, StrCat("compiler ", comp->name, ": no op '", cb->name,
                                     "' in language ", comp->source_language->name));
        }
        cb->op = op;
        cb->compiler = comp.get();
        cb->emits_language = comp->target_language;
        cb->return_type = module_->types().Void();
        ICARUS_RETURN_IF_ERROR(ResolveParamTypes(cb->params, cb->loc));
        ICARUS_RETURN_IF_ERROR(CheckCallbackSignature(cb.get(), op));
        const FunctionDecl*& slot = comp->by_op[static_cast<size_t>(op->index)];
        if (slot != nullptr) {
          return Err(cb->loc, StrCat("compiler ", comp->name, ": duplicate callback for op '",
                                     op->name, "'"));
        }
        slot = cb.get();
      }
    }
    // Interpreters.
    for (auto& interp : module_->interpreters) {
      interp->language = module_->FindLanguage(interp->language_name);
      if (interp->language == nullptr) {
        return Err(interp->loc, StrCat("interpreter ", interp->name, ": unknown language"));
      }
      interp->by_op.assign(interp->language->ops.size(), nullptr);
      for (auto& cb : interp->op_callbacks) {
        const OpDecl* op = interp->language->FindOp(cb->name);
        if (op == nullptr) {
          return Err(cb->loc, StrCat("interpreter ", interp->name, ": no op '", cb->name,
                                     "' in language ", interp->language->name));
        }
        cb->op = op;
        cb->interpreter = interp.get();
        cb->return_type = module_->types().Void();
        ICARUS_RETURN_IF_ERROR(ResolveParamTypes(cb->params, cb->loc));
        ICARUS_RETURN_IF_ERROR(CheckCallbackSignature(cb.get(), op));
        const FunctionDecl*& slot = interp->by_op[static_cast<size_t>(op->index)];
        if (slot != nullptr) {
          return Err(cb->loc, StrCat("interpreter ", interp->name,
                                     ": duplicate callback for op '", op->name, "'"));
        }
        slot = cb.get();
      }
    }
    return Status::Ok();
  }

  Status ResolveFunctionSignature(FunctionDecl* fn) {
    ICARUS_RETURN_IF_ERROR(ResolveParamTypes(fn->params, fn->loc));
    if (fn->return_type_name.empty()) {
      fn->return_type = module_->types().Void();
    } else {
      fn->return_type = LookupType(fn->return_type_name);
      if (fn->return_type == nullptr) {
        return Err(fn->loc, StrCat("unknown return type '", fn->return_type_name, "'"));
      }
    }
    if (!fn->emits_language_name.empty()) {
      fn->emits_language = module_->FindLanguage(fn->emits_language_name);
      if (fn->emits_language == nullptr) {
        return Err(fn->loc, StrCat("unknown language '", fn->emits_language_name, "'"));
      }
    }
    return Status::Ok();
  }

  Status CheckCallbackSignature(FunctionDecl* cb, const OpDecl* op) {
    if (cb->params.size() != op->params.size()) {
      return Err(cb->loc, StrCat("callback for op '", op->name,
                                 "' has mismatched parameter count"));
    }
    for (size_t i = 0; i < cb->params.size(); ++i) {
      if (cb->params[i].is_label != op->params[i].is_label ||
          cb->params[i].type != op->params[i].type) {
        return Err(cb->loc, StrCat("callback for op '", op->name, "': parameter ",
                                   cb->params[i].name, " does not match the op signature"));
      }
    }
    return Status::Ok();
  }

  // --- Phase 2: bodies -------------------------------------------------------

  Status ResolveBodies() {
    for (auto& ext : module_->externs) {
      ICARUS_RETURN_IF_ERROR(ResolveExternContracts(ext.get()));
    }
    for (auto& fn : module_->functions) {
      ICARUS_RETURN_IF_ERROR(ResolveFunctionBody(fn.get()));
    }
    for (auto& comp : module_->compilers) {
      for (auto& cb : comp->op_callbacks) {
        ICARUS_RETURN_IF_ERROR(ResolveFunctionBody(cb.get()));
      }
    }
    for (auto& interp : module_->interpreters) {
      for (auto& cb : interp->op_callbacks) {
        ICARUS_RETURN_IF_ERROR(ResolveFunctionBody(cb.get()));
      }
    }
    return Status::Ok();
  }

  // Per-function resolution state.
  struct LocalVar {
    const Type* type = nullptr;
    int slot = -1;
    bool is_label = false;
    bool label_is_param = false;
  };

  // The visible names, innermost last, keyed by views of the AST's own
  // names; each open block owns the entries from its start mark on. One
  // scope serves every declaration in turn (Reset), so its lists are
  // allocated once per Resolve.
  struct FnScope {
    FunctionDecl* fn = nullptr;  // Null in extern contract clauses.
    std::vector<std::pair<std::string_view, LocalVar>> vars;
    std::vector<size_t> block_starts;
    int next_slot = 0;
    // Local label name → textual binds, in declaration order.
    std::vector<std::pair<std::string_view, int>> bind_counts;

    void Reset(FunctionDecl* decl) {
      fn = decl;
      vars.clear();
      block_starts.clear();
      next_slot = 0;
      bind_counts.clear();
    }
    void Enter() { block_starts.push_back(vars.size()); }
    void Leave() {
      vars.resize(block_starts.back());
      block_starts.pop_back();
    }
    // A later declaration of a name hides an earlier one.
    void Declare(std::string_view name, const LocalVar& var) { vars.emplace_back(name, var); }
    bool DeclaredInBlock(std::string_view name) const {
      for (size_t i = block_starts.back(); i < vars.size(); ++i) {
        if (vars[i].first == name) {
          return true;
        }
      }
      return false;
    }
    // Valid until the next Declare.
    LocalVar* Find(std::string_view name) {
      for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
        if (it->first == name) {
          return &it->second;
        }
      }
      return nullptr;
    }
    // The bind count of local label `name`, or null.
    int* BindCount(std::string_view name) {
      for (auto& [label, count] : bind_counts) {
        if (label == name) {
          return &count;
        }
      }
      return nullptr;
    }
  };

  Status ResolveExternContracts(ExternFnDecl* ext) {
    BeginReferences(ext->params);
    FnScope& scope = scope_;
    scope.Reset(nullptr);
    scope.Enter();
    for (Param& p : ext->params) {
      p.slot = scope.next_slot++;
      scope.Declare(p.name, LocalVar{p.type, p.slot, false, false});
    }
    // `result` names the return value inside ensures clauses.
    int result_slot = -1;
    if (ext->return_type->kind() != TypeKind::kVoid) {
      result_slot = scope.next_slot++;
      scope.Declare("result", LocalVar{ext->return_type, result_slot, false, false});
    }
    for (const ContractClause& clause : ext->contracts) {
      const Type* t = nullptr;
      ICARUS_RETURN_IF_ERROR(ResolveExpr(clause.expr, &scope, &t));
      if (t->kind() != TypeKind::kBool) {
        return Err(ext->loc, StrCat("contract on ", ext->name, " must be Bool"));
      }
    }
    ext->num_slots = scope.next_slot;
    ext->refs = CommitReferences();
    return Status::Ok();
  }

  Status ResolveFunctionBody(FunctionDecl* fn) {
    BeginReferences(fn->params);
    FnScope& scope = scope_;
    scope.Reset(fn);
    scope.Enter();
    for (Param& p : fn->params) {
      if (scope.DeclaredInBlock(p.name)) {
        return Err(fn->loc, StrCat("duplicate parameter '", p.name, "'"));
      }
      p.slot = scope.next_slot++;
      scope.Declare(p.name, LocalVar{p.type, p.slot, p.is_label, p.is_label});
    }
    ICARUS_RETURN_IF_ERROR(ResolveBlock(fn->body, &scope));
    // Exactly-one-textual-bind for locally declared labels (the evaluator
    // additionally enforces bind-exactly-once dynamically). Of several bad
    // labels, the first by name is reported.
    const std::pair<std::string_view, int>* bad = nullptr;
    for (const auto& entry : scope.bind_counts) {
      if (entry.second != 1 && (bad == nullptr || entry.first < bad->first)) {
        bad = &entry;
      }
    }
    if (bad != nullptr) {
      return Err(fn->loc, StrCat("label '", bad->first, "' in ", fn->name, " must be bound ",
                                 "exactly once (found ", bad->second, " binds)"));
    }
    fn->num_slots = scope.next_slot;
    fn->refs = CommitReferences();
    return Status::Ok();
  }

  Status ResolveBlock(StmtList block, FnScope* scope) {
    scope->Enter();
    for (Stmt* stmt : block) {
      ICARUS_RETURN_IF_ERROR(ResolveStmt(stmt, scope));
    }
    scope->Leave();
    return Status::Ok();
  }

  bool Compatible(const Type* want, const Type* have) {
    if (want == have) {
      return true;
    }
    // Int32 and Int64 interconvert implicitly (both are mathematical ints in
    // the verifier; the extractor inserts widenings).
    return want->IsInteger() && have->IsInteger();
  }

  Status ResolveStmt(Stmt* stmt, FnScope* scope) {
    FunctionDecl* fn = scope->fn;
    switch (stmt->kind) {
      case StmtKind::kLet: {
        const Type* init_type = nullptr;
        ICARUS_RETURN_IF_ERROR(ResolveExpr(stmt->expr, scope, &init_type));
        if (init_type->kind() == TypeKind::kVoid) {
          return Err(stmt->loc, StrCat("cannot bind void value to '", stmt->name, "'"));
        }
        if (init_type->kind() == TypeKind::kLabel) {
          return Err(stmt->loc, "labels cannot be stored in variables");
        }
        const Type* declared = init_type;
        if (!stmt->type_name.empty()) {
          declared = LookupType(stmt->type_name);
          if (declared == nullptr) {
            return Err(stmt->loc, StrCat("unknown type '", stmt->type_name, "'"));
          }
          if (!Compatible(declared, init_type)) {
            return Err(stmt->loc, StrCat("initializer type mismatch for '", stmt->name, "'"));
          }
        }
        if (scope->DeclaredInBlock(stmt->name)) {
          return Err(stmt->loc, StrCat("duplicate variable '", stmt->name, "'"));
        }
        stmt->var_slot = scope->next_slot++;
        stmt->decl_type = declared;
        scope->Declare(stmt->name, LocalVar{declared, stmt->var_slot, false, false});
        return Status::Ok();
      }
      case StmtKind::kAssign: {
        LocalVar* var = scope->Find(stmt->name);
        if (var == nullptr) {
          return Err(stmt->loc, StrCat("unknown variable '", stmt->name, "'"));
        }
        if (var->is_label) {
          return Err(stmt->loc, "labels cannot be assigned");
        }
        const Type* value_type = nullptr;
        ICARUS_RETURN_IF_ERROR(ResolveExpr(stmt->expr, scope, &value_type));
        if (!Compatible(var->type, value_type)) {
          return Err(stmt->loc, StrCat("type mismatch assigning to '", stmt->name, "'"));
        }
        stmt->var_slot = var->slot;
        return Status::Ok();
      }
      case StmtKind::kIf: {
        const Type* cond = nullptr;
        ICARUS_RETURN_IF_ERROR(ResolveExpr(stmt->expr, scope, &cond));
        if (cond->kind() != TypeKind::kBool) {
          return Err(stmt->loc, "if condition must be Bool");
        }
        ICARUS_RETURN_IF_ERROR(ResolveBlock(stmt->then_block, scope));
        ICARUS_RETURN_IF_ERROR(ResolveBlock(stmt->else_block, scope));
        return Status::Ok();
      }
      case StmtKind::kAssert:
      case StmtKind::kAssume: {
        const Type* t = nullptr;
        ICARUS_RETURN_IF_ERROR(ResolveExpr(stmt->expr, scope, &t));
        if (t->kind() != TypeKind::kBool) {
          return Err(stmt->loc, "assert/assume operand must be Bool");
        }
        return Status::Ok();
      }
      case StmtKind::kEmit:
        return ResolveEmit(stmt, scope);
      case StmtKind::kLabelDecl:
      case StmtKind::kFailureLabel: {
        if (scope->DeclaredInBlock(stmt->name)) {
          return Err(stmt->loc, StrCat("duplicate name '", stmt->name, "'"));
        }
        stmt->var_slot = scope->next_slot++;
        bool is_failure = stmt->kind == StmtKind::kFailureLabel;
        scope->Declare(stmt->name, LocalVar{module_->types().Label(), stmt->var_slot, true,
                                            /*label_is_param=*/false});
        if (!is_failure && scope->BindCount(stmt->name) == nullptr) {
          scope->bind_counts.emplace_back(stmt->name, 0);
        }
        return Status::Ok();
      }
      case StmtKind::kBind: {
        LocalVar* var = scope->Find(stmt->name);
        if (var == nullptr || !var->is_label) {
          return Err(stmt->loc, StrCat("bind target '", stmt->name, "' is not a label"));
        }
        if (var->label_is_param) {
          return Err(stmt->loc, "label parameters cannot be bound locally");
        }
        stmt->var_slot = var->slot;
        if (int* count = scope->BindCount(stmt->name)) {
          ++*count;
        }
        return Status::Ok();
      }
      case StmtKind::kGoto: {
        if (fn->fn_kind != FnKind::kInterpOp) {
          return Err(stmt->loc, "goto is only allowed inside interpreter callbacks");
        }
        LocalVar* var = scope->Find(stmt->name);
        if (var == nullptr || !var->is_label) {
          return Err(stmt->loc, StrCat("goto target '", stmt->name, "' is not a label"));
        }
        stmt->var_slot = var->slot;
        return Status::Ok();
      }
      case StmtKind::kReturn: {
        const Type* want = fn->return_type;
        if (stmt->expr == nullptr) {
          if (want->kind() != TypeKind::kVoid) {
            return Err(stmt->loc, "missing return value");
          }
          return Status::Ok();
        }
        const Type* have = nullptr;
        ICARUS_RETURN_IF_ERROR(ResolveExpr(stmt->expr, scope, &have));
        if (have->kind() == TypeKind::kLabel) {
          return Err(stmt->loc, "labels cannot be returned");
        }
        if (!Compatible(want, have)) {
          return Err(stmt->loc, "return type mismatch");
        }
        return Status::Ok();
      }
      case StmtKind::kExprStmt: {
        const Type* t = nullptr;
        return ResolveExpr(stmt->expr, scope, &t);
      }
    }
    ICARUS_BUG("statement kind");
  }

  Status ResolveEmit(Stmt* stmt, FnScope* scope) {
    FunctionDecl* fn = scope->fn;
    const LanguageDecl* lang = fn->emits_language;
    if (lang == nullptr) {
      return Err(stmt->loc, StrCat("function ", fn->name, " does not declare `emits`"));
    }
    std::string_view op_name = stmt->emit_callee;
    // Accept `Lang::Op`; the language must match the emit context.
    size_t sep = op_name.rfind("::");
    if (sep != std::string_view::npos) {
      std::string_view qualifier = op_name.substr(0, sep);
      if (module_->FindLanguage(qualifier) != nullptr) {
        if (qualifier != lang->name) {
          return Err(stmt->loc, StrCat("cannot emit ", qualifier, " ops here; this context ",
                                       "emits ", lang->name));
        }
        op_name = op_name.substr(sep + 2);
      }
    }
    const OpDecl* op = lang->FindOp(op_name);
    if (op != nullptr) {
      stmt->emit_op = op;
      stmt->emit_lang = lang;
      Reference(&pending_.emits, op);
      return CheckArgs(stmt->loc, op->params, stmt->args, scope, "op ", op->name);
    }
    // `emit Helper(...)` sugar: the callee is an emitting helper function in
    // the same language (paper Fig. 11, EmitCallGetterResultGuards).
    const FunctionDecl* helper = module_->FindFunction(stmt->emit_callee);
    if (helper != nullptr && helper->emits_language == lang) {
      stmt->emit_op = nullptr;
      stmt->emit_lang = lang;
      // Rewrite as an expression statement call.
      Expr* call = module_->arena().New<Expr>();
      call->kind = ExprKind::kCall;
      call->loc = stmt->loc;
      call->name = stmt->emit_callee;
      call->args = stmt->args;
      stmt->args = {};
      stmt->kind = StmtKind::kExprStmt;
      stmt->expr = call;
      const Type* t = nullptr;
      return ResolveExpr(stmt->expr, scope, &t);
    }
    return Err(stmt->loc, StrCat("no op or emitting helper named '", stmt->emit_callee,
                                 "' in language ", lang->name));
  }

  // `what` and `name` label the diagnostics; they are joined only on error.
  Status CheckArgs(SrcLoc loc, std::span<const Param> params, ExprList args, FnScope* scope,
                   const char* what, std::string_view name) {
    if (params.size() != args.size()) {
      return Err(loc, StrCat(what, name, ": expected ", params.size(), " arguments, got ",
                             args.size()));
    }
    for (size_t i = 0; i < params.size(); ++i) {
      const Type* t = nullptr;
      ICARUS_RETURN_IF_ERROR(ResolveExpr(args[i], scope, &t));
      if (params[i].is_label) {
        if (t->kind() != TypeKind::kLabel) {
          return Err(loc, StrCat(what, name, ": argument ", i + 1, " must be a label"));
        }
      } else {
        if (t->kind() == TypeKind::kLabel) {
          return Err(loc, StrCat(what, name, ": labels may only flow into label parameters"));
        }
        if (!Compatible(params[i].type, t)) {
          return Err(loc, StrCat(what, name, ": argument ", i + 1, " type mismatch (expected ",
                                 params[i].type->name(), ", got ", t->name(), ")"));
        }
      }
    }
    return Status::Ok();
  }

  Status ResolveExpr(Expr* expr, FnScope* scope, const Type** out_type) {
    switch (expr->kind) {
      case ExprKind::kIntLit:
        expr->type = module_->types().Int32();
        break;
      case ExprKind::kBoolLit:
        expr->type = module_->types().Bool();
        break;
      case ExprKind::kEnumLit: {
        size_t sep = expr->name.rfind("::");
        std::string_view enum_name = expr->name.substr(0, sep);
        std::string_view member = expr->name.substr(sep + 2);
        const Type* type = module_->types().Lookup(enum_name);
        const EnumDecl* decl = type != nullptr ? type->enum_decl() : nullptr;
        if (decl == nullptr) {
          return Err(expr->loc, StrCat("unknown enum '", enum_name, "'"));
        }
        int idx = decl->IndexOf(member);
        if (idx < 0) {
          return Err(expr->loc, StrCat("enum ", enum_name, " has no member '", member, "'"));
        }
        expr->enum_decl = decl;
        expr->enum_index = idx;
        expr->type = type;
        Reference(&pending_.enums, decl);
        break;
      }
      case ExprKind::kVar: {
        LocalVar* var = scope->Find(expr->name);
        if (var == nullptr) {
          return Err(expr->loc, StrCat("unknown variable '", expr->name, "'"));
        }
        expr->var_slot = var->slot;
        expr->is_label = var->is_label;
        expr->type = var->type;
        break;
      }
      case ExprKind::kCall: {
        const FunctionDecl* fn = module_->FindFunction(expr->name);
        const ExternFnDecl* ext = fn == nullptr ? module_->FindExtern(expr->name) : nullptr;
        if (fn == nullptr && ext == nullptr) {
          return Err(expr->loc, StrCat("unknown function '", expr->name, "'"));
        }
        std::span<const Param> params = fn != nullptr ? fn->params : ext->params;
        ICARUS_RETURN_IF_ERROR(
            CheckArgs(expr->loc, params, expr->args, scope, "call to ", expr->name));
        if (fn != nullptr) {
          // Emitting helpers may only be called from a matching emit
          // context, which a contract clause never is.
          if (fn->emits_language != nullptr &&
              (scope->fn == nullptr || fn->emits_language != scope->fn->emits_language)) {
            return Err(expr->loc, StrCat("cannot call ", fn->name, " (emits ",
                                         fn->emits_language->name, ") from this context"));
          }
          if (fn->fn_kind == FnKind::kGenerator) {
            return Err(expr->loc, "generators cannot be called directly");
          }
          expr->callee_fn = fn;
          expr->type = fn->return_type;
        } else {
          expr->callee_ext = ext;
          expr->type = ext->return_type;
        }
        if (std::none_of(pending_.calls.begin(), pending_.calls.end(),
                         [fn, ext](const References::Call& call) {
                           return call.fn == fn && call.ext == ext;
                         })) {
          pending_.calls.push_back({fn, ext, expr->loc});
        }
        break;
      }
      case ExprKind::kUnary: {
        const Type* t = nullptr;
        ICARUS_RETURN_IF_ERROR(ResolveExpr(expr->args[0], scope, &t));
        if (expr->un_op == UnOp::kNot) {
          if (t->kind() != TypeKind::kBool) {
            return Err(expr->loc, "operand of ! must be Bool");
          }
          expr->type = t;
        } else {
          if (!t->IsNumeric()) {
            return Err(expr->loc, "operand of unary - must be numeric");
          }
          expr->type = t;
        }
        break;
      }
      case ExprKind::kBinary: {
        const Type* lhs = nullptr;
        const Type* rhs = nullptr;
        ICARUS_RETURN_IF_ERROR(ResolveExpr(expr->args[0], scope, &lhs));
        ICARUS_RETURN_IF_ERROR(ResolveExpr(expr->args[1], scope, &rhs));
        switch (expr->bin_op) {
          case BinOp::kLAnd:
          case BinOp::kLOr:
            if (lhs->kind() != TypeKind::kBool || rhs->kind() != TypeKind::kBool) {
              return Err(expr->loc, "logical operator requires Bool operands");
            }
            expr->type = module_->types().Bool();
            break;
          case BinOp::kEq:
          case BinOp::kNe:
            if (!(Compatible(lhs, rhs) || Compatible(rhs, lhs))) {
              return Err(expr->loc, "== / != operands must have the same type");
            }
            if (lhs->kind() == TypeKind::kLabel) {
              return Err(expr->loc, "labels cannot be compared");
            }
            expr->type = module_->types().Bool();
            break;
          case BinOp::kLt:
          case BinOp::kLe:
          case BinOp::kGt:
          case BinOp::kGe:
            if (!(lhs->IsInteger() && rhs->IsInteger()) &&
                !(lhs->kind() == TypeKind::kDouble && rhs->kind() == TypeKind::kDouble)) {
              return Err(expr->loc, "comparison requires numeric operands");
            }
            expr->type = module_->types().Bool();
            break;
          default:
            // Arithmetic / bitwise.
            if (lhs->kind() == TypeKind::kDouble && rhs->kind() == TypeKind::kDouble) {
              switch (expr->bin_op) {
                case BinOp::kAdd:
                case BinOp::kSub:
                case BinOp::kMul:
                case BinOp::kDiv:
                  expr->type = lhs;
                  break;
                default:
                  return Err(expr->loc, "bitwise operator requires integer operands");
              }
            } else if (lhs->IsInteger() && rhs->IsInteger()) {
              expr->type = (lhs->kind() == TypeKind::kInt64 || rhs->kind() == TypeKind::kInt64)
                               ? module_->types().Int64()
                               : module_->types().Int32();
            } else {
              return Err(expr->loc, "arithmetic requires matching numeric operands");
            }
            break;
        }
        break;
      }
    }
    *out_type = expr->type;
    return Status::Ok();
  }

  // --- Phase 3: recursion check ---------------------------------------------

  // A DFS over the recorded calls. An extern's contract clauses run at each
  // call to it, so they count as its body: a contract that calls back into
  // its caller is recursion too. The error names the call closing the cycle.
  Status CheckNonRecursive() {
    enum Visit : uint8_t { kNew, kOnPath, kDone };
    // Only declarations that call something have a state: one that calls
    // nothing closes no cycle. Sorted by address, for a binary search.
    const std::vector<const FunctionDecl*> functions = module_->AllFunctions();
    std::vector<std::pair<const References*, Visit>> states;
    states.reserve(functions.size() + module_->externs.size());
    for (const FunctionDecl* fn : functions) {
      if (!fn->refs.calls.empty()) {
        states.emplace_back(&fn->refs, kNew);
      }
    }
    for (const auto& ext : module_->externs) {
      if (!ext->refs.calls.empty()) {
        states.emplace_back(&ext->refs, kNew);
      }
    }
    std::sort(states.begin(), states.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    auto state = [&states](const References& refs) -> Visit& {
      return std::lower_bound(states.begin(), states.end(), &refs,
                              [](const auto& entry, const References* key) {
                                return entry.first < key;
                              })
          ->second;
    };
    Status result = Status::Ok();
    // `st` is the state of `refs`, which calls something.
    auto visit = [&](auto&& self, const References& refs, Visit& st) -> bool {
      if (st == kDone) {
        return true;
      }
      st = kOnPath;
      for (const References::Call& call : refs.calls) {
        const References& callee = call.fn != nullptr ? call.fn->refs : call.ext->refs;
        if (callee.calls.empty()) {
          continue;
        }
        Visit& callee_st = state(callee);
        if (callee_st == kOnPath) {
          result = Err(call.loc, StrCat("recursive call involving ",
                                        call.fn != nullptr ? call.fn->name : call.ext->name,
                                        " (Icarus programs must be non-recursive)"));
          return false;
        }
        if (!self(self, callee, callee_st)) {
          return false;
        }
      }
      st = kDone;
      return true;
    };
    for (const FunctionDecl* fn : functions) {
      if (!fn->refs.calls.empty() && !visit(visit, fn->refs, state(fn->refs))) {
        return result;
      }
    }
    for (const auto& ext : module_->externs) {
      if (!ext->refs.calls.empty() && !visit(visit, ext->refs, state(ext->refs))) {
        return result;
      }
    }
    return Status::Ok();
  }

  Module* module_;
  PendingReferences pending_;  // Of the declaration being resolved.
  FnScope scope_;              // Of the declaration being resolved.
};

}  // namespace

Status Resolve(Module* module) {
  ICARUS_CHECK(!module->frozen());
  obs::ScopedSpan span("frontend.resolve");
  ResolverImpl impl(module);
  return impl.Run();
}

}  // namespace icarus::ast

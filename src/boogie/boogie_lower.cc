#include "src/boogie/boogie_lower.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/support/failpoint.h"
#include "src/support/str_util.h"

namespace icarus::boogie {

namespace {

std::string Mangle(std::string_view name) {
  return "$" + ReplaceAll(name, "::", "$");
}

std::string TypeName(const ast::Type* type) {
  switch (type->kind()) {
    case ast::TypeKind::kBool:
      return "bool";
    case ast::TypeKind::kInt32:
    case ast::TypeKind::kInt64:
    case ast::TypeKind::kEnum:
    case ast::TypeKind::kLabel:
      return "int";
    case ast::TypeKind::kDouble:
      return "$Double";
    case ast::TypeKind::kOpaque:
      return Mangle(type->name());
    case ast::TypeKind::kVoid:
      break;
  }
  ICARUS_BUG("no boogie type");
}

// Lowers one Icarus function body into a Boogie procedure. Expression
// lowering hoists calls into `call tmp := ...` statements (Boogie expressions
// cannot contain procedure calls).
class FnLowerer {
 public:
  FnLowerer(const ast::Module& module, const std::set<std::string, std::less<>>& host_externs,
            Program* program)
      : module_(module), host_externs_(host_externs), program_(program) {}

  void Lower(const ast::FunctionDecl& fn) {
    auto proc = std::make_unique<ProcedureDecl>();
    proc_ = proc.get();
    std::string kind_prefix;
    switch (fn.fn_kind) {
      case ast::FnKind::kCompilerOp:
        kind_prefix = "$compile";
        break;
      case ast::FnKind::kInterpOp:
        kind_prefix = "$interp";
        break;
      default:
        kind_prefix = "";
        break;
    }
    proc->name = kind_prefix.empty() ? Mangle(fn.name) : StrCat(kind_prefix, "$", fn.name);
    proc->has_body = true;
    proc->modifies = {"$machine", "$buf$len", "$pc$next"};
    for (const ast::Param& p : fn.params) {
      proc->params.push_back({SlotVar(p.slot, p.name), p.is_label ? "int" : TypeName(p.type)});
      slot_names_[p.slot] = SlotVar(p.slot, p.name);
    }
    if (fn.return_type != nullptr && fn.return_type->kind() != ast::TypeKind::kVoid) {
      proc->returns.push_back({"$ret", TypeName(fn.return_type)});
    }
    LowerBlock(fn.body, &proc->body);
    program_->procedures.push_back(std::move(proc));
  }

 private:
  static std::string SlotVar(int slot, std::string_view name) {
    return StrCat("$v", slot, "$", name);
  }

  std::string NewTemp(const std::string& type) {
    std::string name = StrCat("$tmp", temp_counter_++);
    proc_->locals.push_back({name, type});
    return name;
  }

  void Emit(std::vector<StmtPtr>* out, StmtPtr stmt) { out->push_back(std::move(stmt)); }

  StmtPtr MakeCall(const std::string& callee, std::vector<ExprPtr> args,
                   std::vector<std::string> lhs) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kCall;
    stmt->callee = callee;
    stmt->args = std::move(args);
    stmt->call_lhs = std::move(lhs);
    return stmt;
  }

  // Lowers an expression; emits hoisted call statements into `out`.
  ExprPtr LowerExpr(const ast::Expr& expr, std::vector<StmtPtr>* out) {
    switch (expr.kind) {
      case ast::ExprKind::kIntLit:
        return Expr::Int(expr.int_val);
      case ast::ExprKind::kBoolLit:
        return Expr::Bool(expr.bool_val);
      case ast::ExprKind::kEnumLit:
        return Expr::Var(Mangle(expr.name));
      case ast::ExprKind::kVar:
        return Expr::Var(slot_names_.at(expr.var_slot));
      case ast::ExprKind::kUnary: {
        ExprPtr a = LowerExpr(*expr.args[0], out);
        return Expr::Unary(expr.un_op == ast::UnOp::kNot ? "!" : "-", std::move(a));
      }
      case ast::ExprKind::kBinary: {
        ExprPtr a = LowerExpr(*expr.args[0], out);
        ExprPtr b = LowerExpr(*expr.args[1], out);
        static const std::map<ast::BinOp, std::string> kOps = {
            {ast::BinOp::kAdd, "+"},     {ast::BinOp::kSub, "-"},
            {ast::BinOp::kMul, "*"},     {ast::BinOp::kDiv, "div"},
            {ast::BinOp::kMod, "mod"},   {ast::BinOp::kEq, "=="},
            {ast::BinOp::kNe, "!="},     {ast::BinOp::kLt, "<"},
            {ast::BinOp::kLe, "<="},     {ast::BinOp::kGt, ">"},
            {ast::BinOp::kGe, ">="},     {ast::BinOp::kLAnd, "&&"},
            {ast::BinOp::kLOr, "||"},
        };
        auto it = kOps.find(expr.bin_op);
        if (it != kOps.end()) {
          return Expr::Binary(it->second, std::move(a), std::move(b));
        }
        // Bit operations become uninterpreted functions over int.
        static const std::map<ast::BinOp, std::string> kBitFns = {
            {ast::BinOp::kBitAnd, "$bitand"}, {ast::BinOp::kBitOr, "$bitor"},
            {ast::BinOp::kBitXor, "$bitxor"}, {ast::BinOp::kShl, "$shl"},
            {ast::BinOp::kShr, "$shr"},
        };
        std::vector<ExprPtr> args;
        args.push_back(std::move(a));
        args.push_back(std::move(b));
        return Expr::App(kBitFns.at(expr.bin_op), std::move(args));
      }
      case ast::ExprKind::kCall: {
        std::vector<ExprPtr> args;
        args.reserve(expr.args.size());
        for (const ast::Expr* a : expr.args) {
          args.push_back(LowerExpr(*a, out));
        }
        std::string result_type =
            expr.type->kind() == ast::TypeKind::kVoid ? "" : TypeName(expr.type);
        std::vector<std::string> lhs;
        std::string tmp;
        if (!result_type.empty()) {
          tmp = NewTemp(result_type);
          lhs.push_back(tmp);
        }
        if (expr.callee_fn != nullptr) {
          Emit(out, MakeCall(Mangle(expr.callee_fn->name), std::move(args), std::move(lhs)));
        } else {
          Emit(out, MakeCall(Mangle(expr.callee_ext->name), std::move(args), std::move(lhs)));
        }
        return result_type.empty() ? Expr::Bool(true) : Expr::Var(tmp);
      }
    }
    ICARUS_BUG("expr kind");
  }

  void LowerBlock(ast::StmtList block, std::vector<StmtPtr>* out) {
    for (const ast::Stmt* stmt : block) {
      LowerStmt(*stmt, out);
    }
  }

  void LowerStmt(const ast::Stmt& stmt, std::vector<StmtPtr>* out) {
    switch (stmt.kind) {
      case ast::StmtKind::kLet: {
        std::string var = SlotVar(stmt.var_slot, stmt.name);
        slot_names_[stmt.var_slot] = var;
        proc_->locals.push_back({var, TypeName(stmt.decl_type)});
        ExprPtr value = LowerExpr(*stmt.expr, out);
        auto assign = std::make_unique<Stmt>();
        assign->kind = Stmt::Kind::kAssign;
        assign->target = var;
        assign->expr = std::move(value);
        Emit(out, std::move(assign));
        break;
      }
      case ast::StmtKind::kAssign: {
        ExprPtr value = LowerExpr(*stmt.expr, out);
        auto assign = std::make_unique<Stmt>();
        assign->kind = Stmt::Kind::kAssign;
        assign->target = slot_names_.at(stmt.var_slot);
        assign->expr = std::move(value);
        Emit(out, std::move(assign));
        break;
      }
      case ast::StmtKind::kIf: {
        ExprPtr cond = LowerExpr(*stmt.expr, out);
        auto s = std::make_unique<Stmt>();
        s->kind = Stmt::Kind::kIf;
        s->expr = std::move(cond);
        LowerBlock(stmt.then_block, &s->then_block);
        LowerBlock(stmt.else_block, &s->else_block);
        Emit(out, std::move(s));
        break;
      }
      case ast::StmtKind::kAssert:
      case ast::StmtKind::kAssume: {
        ExprPtr cond = LowerExpr(*stmt.expr, out);
        auto s = std::make_unique<Stmt>();
        s->kind = stmt.kind == ast::StmtKind::kAssert ? Stmt::Kind::kAssert
                                                      : Stmt::Kind::kAssume;
        s->expr = std::move(cond);
        Emit(out, std::move(s));
        break;
      }
      case ast::StmtKind::kEmit: {
        std::vector<ExprPtr> args;
        for (const ast::Expr* a : stmt.args) {
          args.push_back(LowerExpr(*a, out));
        }
        Emit(out, MakeCall(StrCat("$emit$", stmt.emit_lang->name, "$", stmt.emit_op->name),
                           std::move(args), {}));
        break;
      }
      case ast::StmtKind::kLabelDecl:
      case ast::StmtKind::kFailureLabel: {
        std::string var = SlotVar(stmt.var_slot, stmt.name);
        slot_names_[stmt.var_slot] = var;
        proc_->locals.push_back({var, "int"});
        Emit(out, MakeCall(stmt.kind == ast::StmtKind::kLabelDecl ? "$newLabel"
                                                                  : "$failureLabel",
                           {}, {var}));
        break;
      }
      case ast::StmtKind::kBind: {
        std::vector<ExprPtr> args;
        args.push_back(Expr::Var(slot_names_.at(stmt.var_slot)));
        Emit(out, MakeCall("$bindLabel", std::move(args), {}));
        break;
      }
      case ast::StmtKind::kGoto: {
        // Interpreter-callback goto: record the target label and leave the
        // callback; the interpret loop dispatches on $pc$next.
        auto assign = std::make_unique<Stmt>();
        assign->kind = Stmt::Kind::kAssign;
        assign->target = "$pc$next";
        assign->expr = Expr::Var(slot_names_.at(stmt.var_slot));
        Emit(out, std::move(assign));
        auto ret = std::make_unique<Stmt>();
        ret->kind = Stmt::Kind::kReturn;
        Emit(out, std::move(ret));
        break;
      }
      case ast::StmtKind::kReturn: {
        if (stmt.expr != nullptr) {
          ExprPtr value = LowerExpr(*stmt.expr, out);
          auto assign = std::make_unique<Stmt>();
          assign->kind = Stmt::Kind::kAssign;
          assign->target = "$ret";
          assign->expr = std::move(value);
          Emit(out, std::move(assign));
        }
        auto ret = std::make_unique<Stmt>();
        ret->kind = Stmt::Kind::kReturn;
        Emit(out, std::move(ret));
        break;
      }
      case ast::StmtKind::kExprStmt: {
        LowerExpr(*stmt.expr, out);
        break;
      }
    }
  }

  const ast::Module& module_;
  const std::set<std::string, std::less<>>& host_externs_;
  Program* program_;
  ProcedureDecl* proc_ = nullptr;
  std::map<int, std::string> slot_names_;
  int temp_counter_ = 0;
};

// Lowers an extern contract expression, mapping parameter slots to names and
// nested extern calls to uninterpreted function applications (contracts are
// effect-free, so function syntax is the idiomatic Boogie encoding).
ExprPtr LowerContractExpr(const ast::Expr& expr,
                          const std::map<int, std::string>& slot_names) {
  switch (expr.kind) {
    case ast::ExprKind::kIntLit:
      return Expr::Int(expr.int_val);
    case ast::ExprKind::kBoolLit:
      return Expr::Bool(expr.bool_val);
    case ast::ExprKind::kEnumLit:
      return Expr::Var(Mangle(expr.name));
    case ast::ExprKind::kVar:
      return Expr::Var(slot_names.at(expr.var_slot));
    case ast::ExprKind::kUnary:
      return Expr::Unary(expr.un_op == ast::UnOp::kNot ? "!" : "-",
                         LowerContractExpr(*expr.args[0], slot_names));
    case ast::ExprKind::kBinary: {
      static const std::map<ast::BinOp, std::string> kOps = {
          {ast::BinOp::kAdd, "+"},   {ast::BinOp::kSub, "-"},  {ast::BinOp::kMul, "*"},
          {ast::BinOp::kDiv, "div"}, {ast::BinOp::kMod, "mod"}, {ast::BinOp::kEq, "=="},
          {ast::BinOp::kNe, "!="},   {ast::BinOp::kLt, "<"},   {ast::BinOp::kLe, "<="},
          {ast::BinOp::kGt, ">"},    {ast::BinOp::kGe, ">="},  {ast::BinOp::kLAnd, "&&"},
          {ast::BinOp::kLOr, "||"},
      };
      auto it = kOps.find(expr.bin_op);
      ICARUS_REQUIRE_MSG(it != kOps.end(), "binary op has no Boogie lowering");
      return Expr::Binary(it->second, LowerContractExpr(*expr.args[0], slot_names),
                          LowerContractExpr(*expr.args[1], slot_names));
    }
    case ast::ExprKind::kCall: {
      std::vector<ExprPtr> args;
      for (const ast::Expr* a : expr.args) {
        args.push_back(LowerContractExpr(*a, slot_names));
      }
      std::string_view callee =
          expr.callee_ext != nullptr ? expr.callee_ext->name : expr.callee_fn->name;
      return Expr::App(StrCat(Mangle(callee), "#fn"), std::move(args));
    }
  }
  ICARUS_BUG("contract expr");
}

}  // namespace

StatusOr<std::unique_ptr<Program>> LowerToBoogie(const ast::Module& module,
                                                 const meta::MetaStub& stub,
                                                 const cfa::Cfa& automaton,
                                                 const LowerOptions& options) {
  ICARUS_FAILPOINT(failpoint::kBoogieLower);
  auto program = std::make_unique<Program>();
  std::set<std::string, std::less<>> host_externs(options.host_externs.begin(),
                                                  options.host_externs.end());

  // Abstract state: machine model, emit buffer length, interpreter dispatch.
  program->types.push_back({"$Double"});
  program->globals.push_back({"$machine", "int"});
  program->globals.push_back({"$buf$len", "int"});
  program->globals.push_back({"$pc$next", "int"});

  // Enum members as unique int constants with value axioms.
  std::set<std::string_view> declared_enums;
  auto declare_enum = [&](const ast::EnumDecl* decl) {
    if (!declared_enums.insert(decl->name).second) {
      return;
    }
    for (size_t i = 0; i < decl->members.size(); ++i) {
      std::string name = StrCat("$", decl->name, "$", decl->members[i]);
      program->constants.push_back({name, "int", /*unique=*/false});
      AxiomDecl axiom;
      axiom.expr = Expr::Binary("==", Expr::Var(name), Expr::Int(static_cast<int64_t>(i)));
      program->axioms.push_back(std::move(axiom));
    }
  };

  // Opaque types.
  for (const char* name : {"Value", "Object", "Shape", "String", "Symbol", "BigInt",
                           "GetterSetter", "PropertyKey", "ValueId", "ObjectId", "Int32Id",
                           "StringId", "SymbolId", "Reg", "ValueReg"}) {
    if (module.types().Lookup(name) != nullptr) {
      program->types.push_back({Mangle(name)});
    }
  }
  for (const char* ename :
       {"JSValueType", "AttachDecision", "Condition", "ClassKind", "JSOp", "ICMode",
        "Int32BitOpKind"}) {
    const ast::EnumDecl* decl = module.types().LookupEnum(ename);
    if (decl != nullptr) {
      declare_enum(decl);
    }
  }

  // Bit operations used by expression lowering.
  for (const char* fn : {"$bitand", "$bitor", "$bitxor", "$shl", "$shr"}) {
    program->functions.push_back({fn, {{"a", "int"}, {"b", "int"}}, "int"});
  }

  // Externs: pure ones get an uninterpreted function (for contract syntax)
  // plus a contracted procedure; host builtins get body-less procedures over
  // the abstract machine state.
  for (const auto& ext : module.externs) {
    auto proc = std::make_unique<ProcedureDecl>();
    proc->name = Mangle(ext->name);
    proc->has_body = false;
    std::map<int, std::string> slot_names;
    for (const ast::Param& p : ext->params) {
      proc->params.push_back({std::string(p.name), TypeName(p.type)});
      slot_names[p.slot] = p.name;
    }
    bool has_result = ext->return_type->kind() != ast::TypeKind::kVoid;
    if (has_result) {
      proc->returns.push_back({"result", TypeName(ext->return_type)});
      slot_names[static_cast<int>(ext->params.size())] = "result";
    }
    if (host_externs.count(ext->name) != 0) {
      proc->modifies = {"$machine", "$buf$len", "$pc$next"};
    } else {
      // Uninterpreted function mirror for use inside contract expressions.
      FunctionDecl fn;
      fn.name = StrCat(Mangle(ext->name), "#fn");
      for (const ast::Param& p : ext->params) {
        fn.params.push_back({std::string(p.name), TypeName(p.type)});
      }
      fn.return_type = has_result ? TypeName(ext->return_type) : "bool";
      program->functions.push_back(std::move(fn));
      // Determinism: the procedure result equals the function applied to the
      // arguments, which is how calls and contracts stay connected.
      if (has_result) {
        std::vector<ExprPtr> args;
        for (const ast::Param& p : ext->params) {
          args.push_back(Expr::Var(std::string(p.name)));
        }
        proc->ensures_clauses.push_back(Expr::Binary(
            "==", Expr::Var("result"),
            Expr::App(StrCat(Mangle(ext->name), "#fn"), std::move(args))));
      }
      for (const ast::ContractClause& clause : ext->contracts) {
        ExprPtr lowered = LowerContractExpr(*clause.expr, slot_names);
        if (clause.is_requires) {
          proc->requires_clauses.push_back(std::move(lowered));
        } else {
          proc->ensures_clauses.push_back(std::move(lowered));
        }
      }
    }
    program->procedures.push_back(std::move(proc));
  }

  // Label runtime.
  for (const char* name : {"$newLabel", "$failureLabel"}) {
    auto proc = std::make_unique<ProcedureDecl>();
    proc->name = name;
    proc->returns.push_back({"l", "int"});
    proc->modifies = {"$machine", "$buf$len", "$pc$next"};
    proc->has_body = false;
    program->procedures.push_back(std::move(proc));
  }
  {
    auto proc = std::make_unique<ProcedureDecl>();
    proc->name = "$bindLabel";
    proc->params.push_back({"l", "int"});
    proc->modifies = {"$machine", "$buf$len", "$pc$next"};
    proc->has_body = false;
    program->procedures.push_back(std::move(proc));
  }

  // $emit$<Lang>$<Op> procedures: append to the (abstract) buffer.
  for (const auto& lang : module.languages) {
    for (const auto& op : lang->ops) {
      auto proc = std::make_unique<ProcedureDecl>();
      proc->name = StrCat("$emit$", lang->name, "$", op->name);
      for (const ast::Param& p : op->params) {
        proc->params.push_back({std::string(p.name), p.is_label ? "int" : TypeName(p.type)});
      }
      proc->modifies = {"$machine", "$buf$len", "$pc$next"};
      proc->has_body = true;
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = Stmt::Kind::kAssign;
      stmt->target = "$buf$len";
      stmt->expr = Expr::Binary("+", Expr::Var("$buf$len"), Expr::Int(1));
      proc->body.push_back(std::move(stmt));
      program->procedures.push_back(std::move(proc));
    }
  }

  // DSL functions, compiler callbacks, interpreter callbacks.
  {
    FnLowerer lowerer(module, host_externs, program.get());
    for (const auto& fn : module.functions) {
      lowerer.Lower(*fn);
    }
  }
  for (const auto& comp : module.compilers) {
    for (const auto& cb : comp->op_callbacks) {
      FnLowerer lowerer(module, host_externs, program.get());
      lowerer.Lower(*cb);
    }
  }
  for (const auto& interp : module.interpreters) {
    for (const auto& cb : interp->op_callbacks) {
      FnLowerer lowerer(module, host_externs, program.get());
      lowerer.Lower(*cb);
    }
  }

  // The CFA-optimized interpret procedure (Figure 6, right).
  {
    auto proc = std::make_unique<ProcedureDecl>();
    proc->name = "$MASMInterpreter$interpret";
    proc->modifies = {"$machine", "$buf$len", "$pc$next"};
    proc->has_body = true;

    auto node_label = [](int id) {
      if (id == cfa::kExit || id == cfa::kFailure) {
        return std::string("$exit");
      }
      return StrCat("interpret$n", id);
    };
    auto add_goto = [&](std::vector<int> succs, std::vector<StmtPtr>* body) {
      std::set<std::string> targets;
      for (int succ : succs) {
        targets.insert(node_label(succ));
      }
      auto g = std::make_unique<Stmt>();
      g->kind = Stmt::Kind::kGoto;
      g->goto_targets.assign(targets.begin(), targets.end());
      body->push_back(std::move(g));
    };

    add_goto(automaton.Successors(cfa::kEntry), &proc->body);
    for (const cfa::Node& node : automaton.nodes()) {
      auto label = std::make_unique<Stmt>();
      label->kind = Stmt::Kind::kLabel;
      label->target = node_label(node.id);
      proc->body.push_back(std::move(label));
      // Havoc fresh operands and run the op's interpreter callback.
      std::vector<ExprPtr> args;
      for (size_t i = 0; i < node.op->params.size(); ++i) {
        const ast::Param& p = node.op->params[i];
        std::string var = StrCat("$n", node.id, "$a", i);
        proc->locals.push_back({var, p.is_label ? "int" : TypeName(p.type)});
        auto havoc = std::make_unique<Stmt>();
        havoc->kind = Stmt::Kind::kHavoc;
        havoc->target = var;
        proc->body.push_back(std::move(havoc));
        args.push_back(Expr::Var(var));
      }
      auto call = std::make_unique<Stmt>();
      call->kind = Stmt::Kind::kCall;
      call->callee = StrCat("$interp$", node.op->name);
      call->args = std::move(args);
      proc->body.push_back(std::move(call));
      add_goto(automaton.Successors(node.id), &proc->body);
    }
    auto exit_label = std::make_unique<Stmt>();
    exit_label->kind = Stmt::Kind::kLabel;
    exit_label->target = "$exit";
    proc->body.push_back(std::move(exit_label));
    auto ret = std::make_unique<Stmt>();
    ret->kind = Stmt::Kind::kReturn;
    proc->body.push_back(std::move(ret));
    program->procedures.push_back(std::move(proc));
  }

  // The entrypoint (Figure 3): havoc inputs, generate, interpret.
  {
    auto proc = std::make_unique<ProcedureDecl>();
    proc->name = StrCat("$verify", Mangle(stub.generator->name));
    proc->entrypoint = true;
    proc->has_body = true;
    proc->modifies = {"$machine", "$buf$len", "$pc$next"};
    std::vector<ExprPtr> args;
    for (const ast::Param& p : stub.generator->params) {
      std::string var = StrCat("$in$", p.name);
      proc->locals.push_back({var, TypeName(p.type)});
      auto havoc = std::make_unique<Stmt>();
      havoc->kind = Stmt::Kind::kHavoc;
      havoc->target = var;
      proc->body.push_back(std::move(havoc));
      args.push_back(Expr::Var(var));
    }
    proc->locals.push_back({"$decision", "int"});
    auto call = std::make_unique<Stmt>();
    call->kind = Stmt::Kind::kCall;
    call->callee = Mangle(stub.generator->name);
    call->args = std::move(args);
    call->call_lhs = {"$decision"};
    proc->body.push_back(std::move(call));
    auto guard = std::make_unique<Stmt>();
    guard->kind = Stmt::Kind::kIf;
    guard->expr =
        Expr::Binary("==", Expr::Var("$decision"), Expr::Var("$AttachDecision$Attach"));
    auto interp_call = std::make_unique<Stmt>();
    interp_call->kind = Stmt::Kind::kCall;
    interp_call->callee = "$MASMInterpreter$interpret";
    guard->then_block.push_back(std::move(interp_call));
    proc->body.push_back(std::move(guard));
    program->procedures.push_back(std::move(proc));
  }

  return program;
}

}  // namespace icarus::boogie

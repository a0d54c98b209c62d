#include "src/exec/code.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "src/support/check.h"

namespace icarus::exec {

namespace {

class Lowerer {
 public:
  Lowerer(Code* code, int resolver_slots) : code_(code), first_temp_(resolver_slots) {
    code_->num_slots = resolver_slots;
  }

  void Block(ast::StmtList block) {
    for (const ast::Stmt* stmt : block) {
      Stmt(*stmt);
    }
  }

  void Stmt(const ast::Stmt& stmt) {
    // Temporaries live for one statement.
    temps_ = 0;
    switch (stmt.kind) {
      case ast::StmtKind::kLet:
      case ast::StmtKind::kAssign:
        Expr(*stmt.expr, stmt.var_slot);
        return;
      case ast::StmtKind::kIf: {
        const int cond = Expr(*stmt.expr);
        const int branch = Here();
        Emit(Op::kBranch).a = cond;
        Block(stmt.then_block);
        if (stmt.else_block.empty()) {
          At(branch).target = Here();
          return;
        }
        const int jump = Here();
        Emit(Op::kJump);
        At(branch).target = Here();
        Block(stmt.else_block);
        At(jump).target = Here();
        return;
      }
      case ast::StmtKind::kAssert:
      case ast::StmtKind::kAssume: {
        const int cond = Expr(*stmt.expr);
        Insn& in = Emit(stmt.kind == ast::StmtKind::kAssert ? Op::kAssert : Op::kAssume);
        in.a = cond;
        in.stmt = &stmt;
        return;
      }
      case ast::StmtKind::kEmit: {
        const auto [args, num_args] = Args(stmt.args);
        Insn& in = Emit(Op::kEmit);
        in.args = args;
        in.num_args = num_args;
        in.stmt = &stmt;
        return;
      }
      case ast::StmtKind::kLabelDecl:
      case ast::StmtKind::kFailureLabel: {
        Insn& in = Emit(Op::kLabel);
        in.dst = stmt.var_slot;
        in.stmt = &stmt;
        return;
      }
      case ast::StmtKind::kBind: {
        Insn& in = Emit(Op::kBind);
        in.a = stmt.var_slot;
        in.stmt = &stmt;
        return;
      }
      case ast::StmtKind::kGoto:
        Emit(Op::kGoto).a = stmt.var_slot;
        return;
      case ast::StmtKind::kReturn: {
        const int value = stmt.expr != nullptr ? Expr(*stmt.expr) : -1;
        Emit(Op::kReturn).a = value;
        return;
      }
      case ast::StmtKind::kExprStmt:
        Expr(*stmt.expr);
        return;
    }
    ICARUS_BUG("stmt kind");
  }

  // Lowers `expr` and returns the slot that holds its value: `dst` when one
  // is given, else the variable's own slot for a variable and a fresh
  // temporary for anything else. Only the last instruction writes `dst`,
  // after every operand is read.
  int Expr(const ast::Expr& expr, int dst = -1) {
    switch (expr.kind) {
      case ast::ExprKind::kVar: {
        if (dst < 0 || dst == expr.var_slot) {
          return expr.var_slot;
        }
        Insn& in = Emit(Op::kMove);
        in.dst = dst;
        in.a = expr.var_slot;
        return dst;
      }
      case ast::ExprKind::kIntLit:
        return Const(Op::kInt, expr.type, expr.int_val, dst);
      case ast::ExprKind::kBoolLit:
        return Const(Op::kBool, expr.type, expr.bool_val ? 1 : 0, dst);
      case ast::ExprKind::kEnumLit:
        return Const(Op::kInt, expr.type, expr.enum_index, dst);
      case ast::ExprKind::kUnary: {
        const int a = Expr(*expr.args[0]);
        const int out = dst >= 0 ? dst : Temp();
        Insn& in = Emit(expr.un_op == ast::UnOp::kNot ? Op::kNot : Op::kNeg);
        in.dst = out;
        in.a = a;
        in.type = expr.type;
        return out;
      }
      case ast::ExprKind::kBinary: {
        // No short-circuiting: both operands are evaluated and combined as
        // terms. Platform code keeps logical operands effect-free.
        const int a = Expr(*expr.args[0]);
        const int b = Expr(*expr.args[1]);
        const int out = dst >= 0 ? dst : Temp();
        Insn& in = Emit(Op::kBinary);
        in.bin_op = expr.bin_op;
        in.dst = out;
        in.a = a;
        in.b = b;
        in.type = expr.type;
        return out;
      }
      case ast::ExprKind::kCall: {
        ICARUS_REQUIRE_MSG((expr.callee_fn != nullptr) != (expr.callee_ext != nullptr),
                           "call resolved to neither a function nor an extern");
        const auto [args, num_args] = Args(expr.args);
        const int out = dst >= 0 ? dst : Temp();
        Insn& in = Emit(expr.callee_fn != nullptr ? Op::kCall : Op::kCallExtern);
        in.dst = out;
        in.args = args;
        in.num_args = num_args;
        if (expr.callee_fn != nullptr) {
          in.fn = expr.callee_fn;
        } else {
          in.ext = expr.callee_ext;
        }
        return out;
      }
    }
    ICARUS_BUG("expr kind");
  }

  // A contract clause: an expression with its own temporaries.
  int Clause(const ast::Expr& expr) {
    temps_ = 0;
    return Expr(expr);
  }

  // Lowers each argument, then records their slots contiguously (an
  // argument that is itself a call records its own arguments first).
  std::pair<int, int> Args(ast::ExprList exprs) {
    std::vector<int> slots;
    slots.reserve(exprs.size());
    for (const ast::Expr* e : exprs) {
      slots.push_back(Expr(*e));
    }
    const int begin = static_cast<int>(code_->arg_slots.size());
    code_->arg_slots.insert(code_->arg_slots.end(), slots.begin(), slots.end());
    return {begin, static_cast<int>(slots.size())};
  }

  Insn& Emit(Op op) {
    Insn& in = code_->insns.emplace_back();
    in.op = op;
    return in;
  }

  // The code is kept for the module's lifetime: drop the growth slack.
  void Finish() {
    code_->insns.shrink_to_fit();
    code_->arg_slots.shrink_to_fit();
  }

 private:
  int Here() const { return static_cast<int>(code_->insns.size()); }
  Insn& At(int pc) { return code_->insns[static_cast<size_t>(pc)]; }

  int Temp() {
    const int slot = first_temp_ + temps_++;
    code_->num_slots = std::max(code_->num_slots, slot + 1);
    return slot;
  }

  int Const(Op op, const ast::Type* type, int64_t value, int dst) {
    const int out = dst >= 0 ? dst : Temp();
    Insn& in = Emit(op);
    in.dst = out;
    in.imm = value;
    in.type = type;
    return out;
  }

  Code* code_;
  const int first_temp_;
  int temps_ = 0;
};

std::shared_ptr<const Code> LowerFunction(const ast::FunctionDecl& fn) {
  auto code = std::make_shared<Code>();
  code->name = fn.name;
  code->fn = &fn;
  for (const ast::Param& p : fn.params) {
    code->param_slots.push_back(p.slot);
  }
  Lowerer lowerer(code.get(), fn.num_slots);
  lowerer.Block(fn.body);
  lowerer.Emit(Op::kReturn);
  lowerer.Finish();
  return code;
}

// requires clauses in order, the result as an uninterpreted application
// bound to the `result` slot (the one after the params), ensures clauses in
// order, then the result.
std::shared_ptr<const Code> LowerContract(const ast::ExternFnDecl& ext) {
  auto code = std::make_shared<Code>();
  code->name = ext.name;
  code->ext = &ext;
  for (const ast::Param& p : ext.params) {
    code->param_slots.push_back(p.slot);
  }
  Lowerer lowerer(code.get(), ext.num_slots);
  for (size_t i = 0; i < ext.contracts.size(); ++i) {
    if (ext.contracts[i].is_requires) {
      const int cond = lowerer.Clause(*ext.contracts[i].expr);
      Insn& in = lowerer.Emit(Op::kRequire);
      in.a = cond;
      in.imm = static_cast<int64_t>(i);
    }
  }
  const bool returns = ext.return_type->kind() != ast::TypeKind::kVoid;
  const int result_slot = static_cast<int>(ext.params.size());
  if (returns) {
    lowerer.Emit(Op::kApply).dst = result_slot;
  }
  for (const ast::ContractClause& clause : ext.contracts) {
    if (!clause.is_requires) {
      const int cond = lowerer.Clause(*clause.expr);
      lowerer.Emit(Op::kEnsure).a = cond;
    }
  }
  lowerer.Emit(Op::kReturn).a = returns ? result_slot : -1;
  lowerer.Finish();
  return code;
}

}  // namespace

const Code& Lowered(const ast::FunctionDecl& fn) {
  std::call_once(fn.lower_once, [&fn] { fn.lowered = LowerFunction(fn); });
  return *fn.lowered;
}

const Code& LoweredContract(const ast::ExternFnDecl& ext) {
  std::call_once(ext.lower_once, [&ext] { ext.lowered = LowerContract(ext); });
  return *ext.lowered;
}

}  // namespace icarus::exec

#include "src/ast/printer.h"

#include "src/support/check.h"
#include "src/support/str_util.h"

namespace icarus::ast {

namespace {

const char* BinOpText(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kBitAnd: return "&";
    case BinOp::kBitOr: return "|";
    case BinOp::kBitXor: return "^";
    case BinOp::kShl: return "<<";
    case BinOp::kShr: return ">>";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kLAnd: return "&&";
    case BinOp::kLOr: return "||";
  }
  return "?";
}

void AppendParams(std::span<const Param> params, std::string* out) {
  for (size_t i = 0; i < params.size(); ++i) {
    const Param& p = params[i];
    out->append(i > 0 ? ", " : "").append(p.is_label ? "label " : "").append(p.name);
    if (!p.is_label) {
      out->append(": ").append(p.type_name);
    }
  }
}

std::string PrintBlock(StmtList block, int indent) {
  std::string out = "{\n";
  for (const Stmt* stmt : block) {
    out += PrintStmt(*stmt, indent + 2);
  }
  out += std::string(static_cast<size_t>(indent), ' ');
  out += "}";
  return out;
}

}  // namespace

void AppendExpr(const Expr& expr, std::string* out) {
  switch (expr.kind) {
    case ExprKind::kIntLit:
      out->append(std::to_string(expr.int_val));
      return;
    case ExprKind::kBoolLit:
      out->append(expr.bool_val ? "true" : "false");
      return;
    case ExprKind::kEnumLit:
    case ExprKind::kVar:
      out->append(expr.name);
      return;
    case ExprKind::kCall:
      out->append(expr.name).append("(");
      for (size_t i = 0; i < expr.args.size(); ++i) {
        AppendExpr(*expr.args[i], &out->append(i > 0 ? ", " : ""));
      }
      out->append(")");
      return;
    case ExprKind::kUnary:
      AppendExpr(*expr.args[0], &out->append(expr.un_op == UnOp::kNot ? "!" : "-"));
      return;
    case ExprKind::kBinary:
      AppendExpr(*expr.args[0], &out->append("("));
      AppendExpr(*expr.args[1], &out->append(" ").append(BinOpText(expr.bin_op)).append(" "));
      out->append(")");
      return;
  }
  ICARUS_UNREACHABLE("expr kind");
}

std::string PrintExpr(const Expr& expr) {
  std::string out;
  AppendExpr(expr, &out);
  return out;
}

std::string PrintStmt(const Stmt& stmt, int indent) {
  std::string pad(static_cast<size_t>(indent), ' ');
  switch (stmt.kind) {
    case StmtKind::kLet:
      return StrCat(pad, "let ", stmt.name,
                    stmt.type_name.empty() ? "" : StrCat(": ", stmt.type_name), " = ",
                    PrintExpr(*stmt.expr), ";\n");
    case StmtKind::kAssign:
      return StrCat(pad, stmt.name, " = ", PrintExpr(*stmt.expr), ";\n");
    case StmtKind::kIf: {
      std::string out = StrCat(pad, "if ", PrintExpr(*stmt.expr), " ",
                               PrintBlock(stmt.then_block, indent));
      if (!stmt.else_block.empty()) {
        out += StrCat(" else ", PrintBlock(stmt.else_block, indent));
      }
      out += "\n";
      return out;
    }
    case StmtKind::kAssert:
      return StrCat(pad, "assert ", PrintExpr(*stmt.expr), ";\n");
    case StmtKind::kAssume:
      return StrCat(pad, "assume ", PrintExpr(*stmt.expr), ";\n");
    case StmtKind::kEmit: {
      std::vector<std::string> args;
      args.reserve(stmt.args.size());
      for (const Expr* a : stmt.args) {
        args.push_back(PrintExpr(*a));
      }
      return StrCat(pad, "emit ", stmt.emit_callee, "(", Join(args, ", "), ");\n");
    }
    case StmtKind::kLabelDecl:
      return StrCat(pad, "label ", stmt.name, ";\n");
    case StmtKind::kBind:
      return StrCat(pad, "bind ", stmt.name, ";\n");
    case StmtKind::kGoto:
      return StrCat(pad, "goto ", stmt.name, ";\n");
    case StmtKind::kFailureLabel:
      return StrCat(pad, "failure ", stmt.name, ";\n");
    case StmtKind::kReturn:
      return stmt.expr == nullptr ? StrCat(pad, "return;\n")
                                  : StrCat(pad, "return ", PrintExpr(*stmt.expr), ";\n");
    case StmtKind::kExprStmt:
      return StrCat(pad, PrintExpr(*stmt.expr), ";\n");
  }
  ICARUS_UNREACHABLE("stmt kind");
}

std::string PrintFunction(const FunctionDecl& fn) {
  std::string head;
  switch (fn.fn_kind) {
    case FnKind::kGenerator:
      head = StrCat("generator ", fn.name);
      break;
    case FnKind::kHelper:
      head = StrCat("fn ", fn.name);
      break;
    case FnKind::kCompilerOp:
    case FnKind::kInterpOp:
      head = StrCat("op ", fn.name);
      break;
  }
  AppendParams(fn.params, &head.append("("));
  head += ")";
  if (!fn.return_type_name.empty() && fn.fn_kind != FnKind::kGenerator) {
    head += StrCat(" -> ", fn.return_type_name);
  }
  if (!fn.emits_language_name.empty()) {
    head += StrCat(" emits ", fn.emits_language_name);
  }
  return StrCat(head, " ", PrintBlock(fn.body, 0), "\n");
}

void AppendOpSignature(const OpDecl& op, std::string* out) {
  AppendParams(op.params, &out->append("op ").append(op.name).append("("));
  out->append(");");
}

std::string PrintLanguage(const LanguageDecl& lang) {
  std::string out = StrCat("language ", lang.name, " {\n");
  for (const auto& op : lang.ops) {
    AppendOpSignature(*op, &out.append("  "));
    out += "\n";
  }
  out += "}\n";
  return out;
}

std::string PrintModule(const Module& module) {
  std::string out;
  for (const auto& lang : module.languages) {
    out += PrintLanguage(*lang);
    out += "\n";
  }
  for (const auto& comp : module.compilers) {
    out += StrCat("compiler ", comp->name, " : ", comp->source_language_name, " -> ",
                  comp->target_language_name, " {\n");
    for (const auto& cb : comp->op_callbacks) {
      out += Indent(PrintFunction(*cb), 2);
      out += "\n";
    }
    out += "}\n\n";
  }
  for (const auto& interp : module.interpreters) {
    out += StrCat("interpreter ", interp->name, " : ", interp->language_name, " {\n");
    for (const auto& cb : interp->op_callbacks) {
      out += Indent(PrintFunction(*cb), 2);
      out += "\n";
    }
    out += "}\n\n";
  }
  for (const auto& fn : module.functions) {
    out += PrintFunction(*fn);
    out += "\n";
  }
  return out;
}

}  // namespace icarus::ast

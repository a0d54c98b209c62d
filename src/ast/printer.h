// Pretty-printer: renders AST back to Icarus surface syntax.
//
// Used for parser round-trip tests, diagnostics in verifier reports, and the
// per-generator LoC accounting in the Figure 12 reproduction.
#ifndef ICARUS_AST_PRINTER_H_
#define ICARUS_AST_PRINTER_H_

#include <string>

#include "src/ast/ast.h"

namespace icarus::ast {

std::string PrintExpr(const Expr& expr);
// Appends PrintExpr's text to `out`, so a caller can reuse one buffer.
void AppendExpr(const Expr& expr, std::string* out);
std::string PrintStmt(const Stmt& stmt, int indent = 0);
std::string PrintFunction(const FunctionDecl& fn);
// Appends `op Name(p: T, label l, ...);` to `out`.
void AppendOpSignature(const OpDecl& op, std::string* out);
std::string PrintLanguage(const LanguageDecl& lang);
std::string PrintModule(const Module& module);

}  // namespace icarus::ast

#endif  // ICARUS_AST_PRINTER_H_

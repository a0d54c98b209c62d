#include "src/ast/token.h"

namespace icarus::ast {

bool ReadIntLiteral(std::string_view spelling, int64_t* value) {
  // Accumulate with an explicit overflow guard: a runaway literal is a
  // diagnostic, not signed-overflow UB.
  const bool hex = spelling.size() >= 2 && spelling[0] == '0' &&
                   (spelling[1] == 'x' || spelling[1] == 'X');
  const uint64_t base = hex ? 16 : 10;
  uint64_t result = 0;
  bool overflow = false;
  for (size_t i = hex ? 2 : 0; i < spelling.size(); ++i) {
    const char d = spelling[i];
    uint64_t digit;
    if (d >= '0' && d <= '9') {
      digit = static_cast<uint64_t>(d - '0');
    } else if (hex && d >= 'a' && d <= 'f') {
      digit = static_cast<uint64_t>(d - 'a' + 10);
    } else if (hex && d >= 'A' && d <= 'F') {
      digit = static_cast<uint64_t>(d - 'A' + 10);
    } else {
      return false;
    }
    overflow = overflow || result > (UINT64_MAX - digit) / base;
    result = result * base + digit;
  }
  if (spelling.size() == (hex ? 2u : 0u) || overflow ||
      result > static_cast<uint64_t>(INT64_MAX)) {
    return false;
  }
  *value = static_cast<int64_t>(result);
  return true;
}

const char* TokName(Tok t) {
  switch (t) {
    case Tok::kEof: return "<eof>";
    case Tok::kIdent: return "identifier";
    case Tok::kIntLit: return "integer literal";
    case Tok::kStrLit: return "string literal";
    case Tok::kLParen: return "(";
    case Tok::kRParen: return ")";
    case Tok::kLBrace: return "{";
    case Tok::kRBrace: return "}";
    case Tok::kComma: return ",";
    case Tok::kSemi: return ";";
    case Tok::kColon: return ":";
    case Tok::kColonColon: return "::";
    case Tok::kArrow: return "->";
    case Tok::kAssign: return "=";
    case Tok::kEqEq: return "==";
    case Tok::kNe: return "!=";
    case Tok::kLt: return "<";
    case Tok::kLe: return "<=";
    case Tok::kGt: return ">";
    case Tok::kGe: return ">=";
    case Tok::kAndAnd: return "&&";
    case Tok::kOrOr: return "||";
    case Tok::kBang: return "!";
    case Tok::kPlus: return "+";
    case Tok::kMinus: return "-";
    case Tok::kStar: return "*";
    case Tok::kSlash: return "/";
    case Tok::kPercent: return "%";
    case Tok::kAmp: return "&";
    case Tok::kPipe: return "|";
    case Tok::kCaret: return "^";
    case Tok::kShl: return "<<";
    case Tok::kShr: return ">>";
    case Tok::kKwLanguage: return "language";
    case Tok::kKwOp: return "op";
    case Tok::kKwEnum: return "enum";
    case Tok::kKwExtern: return "extern";
    case Tok::kKwType: return "type";
    case Tok::kKwFn: return "fn";
    case Tok::kKwCompiler: return "compiler";
    case Tok::kKwInterpreter: return "interpreter";
    case Tok::kKwGenerator: return "generator";
    case Tok::kKwEmits: return "emits";
    case Tok::kKwEmit: return "emit";
    case Tok::kKwLet: return "let";
    case Tok::kKwIf: return "if";
    case Tok::kKwElse: return "else";
    case Tok::kKwAssert: return "assert";
    case Tok::kKwAssume: return "assume";
    case Tok::kKwLabel: return "label";
    case Tok::kKwBind: return "bind";
    case Tok::kKwGoto: return "goto";
    case Tok::kKwFailure: return "failure";
    case Tok::kKwReturn: return "return";
    case Tok::kKwTrue: return "true";
    case Tok::kKwFalse: return "false";
    case Tok::kKwRequires: return "requires";
    case Tok::kKwEnsures: return "ensures";
    case Tok::kError: return "<error>";
  }
  return "<?>";
}

}  // namespace icarus::ast

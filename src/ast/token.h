// Token definitions for the Icarus DSL lexer.
#ifndef ICARUS_AST_TOKEN_H_
#define ICARUS_AST_TOKEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace icarus::ast {

enum class Tok {
  kEof,
  kIdent,
  kIntLit,
  kStrLit,  // Lexed for diagnostics; the DSL grammar has no string values.
  // Punctuation.
  kLParen, kRParen, kLBrace, kRBrace,
  kComma, kSemi, kColon, kColonColon, kArrow,
  kAssign,
  // Operators.
  kEqEq, kNe, kLt, kLe, kGt, kGe,
  kAndAnd, kOrOr, kBang,
  kPlus, kMinus, kStar, kSlash, kPercent,
  kAmp, kPipe, kCaret, kShl, kShr,
  // Keywords.
  kKwLanguage, kKwOp, kKwEnum, kKwExtern, kKwType, kKwFn, kKwCompiler,
  kKwInterpreter, kKwGenerator, kKwEmits, kKwEmit, kKwLet, kKwIf, kKwElse,
  kKwAssert, kKwAssume, kKwLabel, kKwBind, kKwGoto, kKwFailure, kKwReturn,
  kKwTrue, kKwFalse, kKwRequires, kKwEnsures,
  kError,
};

struct Token {
  Tok kind = Tok::kEof;
  // The token's spelling: a view into the source being lexed, so it lives
  // only as long as that source. Whatever outlives the parse is copied out.
  std::string_view text;
  std::string message;  // kError only: the diagnostic.
  int64_t int_val = 0;
  int line = 1;
  int col = 1;
  size_t offset = 0;   // Byte offset of the token start in the source.
};

const char* TokName(Tok t);

}  // namespace icarus::ast

#endif  // ICARUS_AST_TOKEN_H_

// Token definitions for the Icarus DSL lexer.
//
// A Token is a position, not a copy: its spelling is the `length` bytes at
// `offset` of the text it was lexed from (TokenText), so it means something
// only next to that text. The parser lexes the module's own copy of each
// source chunk (ast.h Module), which lives as long as the module. An int
// literal's value is read from its spelling when the parser takes it
// (ReadIntLiteral), and a kError token's diagnostic stays in the lexer
// (Lexer::error).
#ifndef ICARUS_AST_TOKEN_H_
#define ICARUS_AST_TOKEN_H_

#include <cstdint>
#include <string_view>

namespace icarus::ast {

enum class Tok : uint8_t {
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
  uint32_t offset = 0;  // Byte offset of the token start in the source.
  uint32_t length = 0;  // Bytes of its spelling.
  int32_t line = 1;
  int32_t col = 1;
};
static_assert(sizeof(Token) <= 24, "a token is a position, not a copy of its text");

// The spelling of `token`, lexed from `source`: a view into it.
inline std::string_view TokenText(std::string_view source, const Token& token) {
  return source.substr(token.offset, token.length);
}

// Reads the value of an int literal's spelling: decimal digits, or hex
// digits after `0x`/`0X`. False when there are no digits or the value
// overflows int64; the lexer lets no such literal through.
bool ReadIntLiteral(std::string_view spelling, int64_t* value);

const char* TokName(Tok t);

}  // namespace icarus::ast

#endif  // ICARUS_AST_TOKEN_H_

#include "src/ast/lexer.h"

#include <cctype>
#include <cstdint>
#include <map>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/str_util.h"

namespace icarus::ast {

namespace {

const std::map<std::string_view, Tok>& Keywords() {
  static const std::map<std::string_view, Tok> kKeywords = {
      {"language", Tok::kKwLanguage},
      {"op", Tok::kKwOp},
      {"enum", Tok::kKwEnum},
      {"extern", Tok::kKwExtern},
      {"type", Tok::kKwType},
      {"fn", Tok::kKwFn},
      {"compiler", Tok::kKwCompiler},
      {"interpreter", Tok::kKwInterpreter},
      {"generator", Tok::kKwGenerator},
      {"emits", Tok::kKwEmits},
      {"emit", Tok::kKwEmit},
      {"let", Tok::kKwLet},
      {"if", Tok::kKwIf},
      {"else", Tok::kKwElse},
      {"assert", Tok::kKwAssert},
      {"assume", Tok::kKwAssume},
      {"label", Tok::kKwLabel},
      {"bind", Tok::kKwBind},
      {"goto", Tok::kKwGoto},
      {"failure", Tok::kKwFailure},
      {"return", Tok::kKwReturn},
      {"true", Tok::kKwTrue},
      {"false", Tok::kKwFalse},
      {"requires", Tok::kKwRequires},
      {"ensures", Tok::kKwEnsures},
  };
  return kKeywords;
}

// ASCII only, as the "C" locale's isalpha/isalnum.
bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentCont(char c) {
  return IsIdentStart(c) || (c >= '0' && c <= '9');
}

}  // namespace

Lexer::Lexer(std::string_view source) : src_(source) {}

char Lexer::Peek(int ahead) const {
  size_t p = pos_ + static_cast<size_t>(ahead);
  return p < src_.size() ? src_[p] : '\0';
}

char Lexer::Advance() {
  char c = Peek();
  ++pos_;
  if (c == '\n') {
    ++line_;
    col_ = 1;
  } else {
    ++col_;
  }
  return c;
}

bool Lexer::Match(char c) {
  if (Peek() == c) {
    Advance();
    return true;
  }
  return false;
}

// Returns true on success; false when a block comment ran to EOF unclosed
// (a classic truncated-file symptom), with the comment start in *err_line /
// *err_col for the diagnostic.
bool Lexer::SkipTrivia(int* err_line, int* err_col) {
  while (true) {
    char c = Peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      Advance();
    } else if (c == '/' && Peek(1) == '/') {
      while (Peek() != '\n' && Peek() != '\0') {
        Advance();
      }
    } else if (c == '/' && Peek(1) == '*') {
      *err_line = line_;
      *err_col = col_;
      Advance();
      Advance();
      while (!(Peek() == '*' && Peek(1) == '/') && Peek() != '\0') {
        Advance();
      }
      if (Peek() == '\0') {
        return false;
      }
      Advance();
      Advance();
    } else {
      break;
    }
  }
  return true;
}

Token Lexer::Make(Tok kind) {
  Token t;
  t.kind = kind;
  t.text = src_.substr(tok_offset_, pos_ - tok_offset_);
  t.line = tok_line_;
  t.col = tok_col_;
  t.offset = tok_offset_;
  return t;
}

Token Lexer::Error(int line, int col, std::string message) {
  Token t = Make(Tok::kError);
  t.line = line;
  t.col = col;
  t.message = std::move(message);
  return t;
}

Token Lexer::Next() {
  int trivia_line = 0;
  int trivia_col = 0;
  if (!SkipTrivia(&trivia_line, &trivia_col)) {
    return Error(trivia_line, trivia_col,
                 StrFormat("unterminated block comment starting at line %d, col %d "
                           "(truncated file?)",
                           trivia_line, trivia_col));
  }
  tok_line_ = line_;
  tok_col_ = col_;
  tok_offset_ = pos_;
  char c = Peek();
  if (c == '\0') {
    return Make(Tok::kEof);
  }
  if (IsIdentStart(c)) {
    // An identifier never spans a newline, so only the column moves.
    size_t end = pos_ + 1;
    while (end < src_.size() && IsIdentCont(src_[end])) {
      ++end;
    }
    col_ += static_cast<int>(end - pos_);
    pos_ = end;
    auto it = Keywords().find(src_.substr(tok_offset_, pos_ - tok_offset_));
    return Make(it != Keywords().end() ? it->second : Tok::kIdent);
  }
  if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
    // Accumulate with an explicit overflow guard: a runaway literal is a
    // diagnostic, not signed-overflow UB.
    uint64_t value = 0;
    bool overflow = false;
    if (c == '0' && (Peek(1) == 'x' || Peek(1) == 'X')) {
      Advance();
      Advance();
      if (std::isxdigit(static_cast<unsigned char>(Peek())) == 0) {
        return Error(tok_line_, tok_col_,
                     StrFormat("hex literal with no digits at line %d, col %d", tok_line_,
                               tok_col_));
      }
      while (std::isxdigit(static_cast<unsigned char>(Peek())) != 0) {
        char d = Advance();
        uint64_t digit = std::isdigit(static_cast<unsigned char>(d)) != 0
                             ? static_cast<uint64_t>(d - '0')
                             : static_cast<uint64_t>(std::tolower(d) - 'a' + 10);
        overflow = overflow || value > (UINT64_MAX - digit) / 16;
        value = value * 16 + digit;
      }
    } else {
      while (std::isdigit(static_cast<unsigned char>(Peek())) != 0) {
        uint64_t digit = static_cast<uint64_t>(Advance() - '0');
        overflow = overflow || value > (UINT64_MAX - digit) / 10;
        value = value * 10 + digit;
      }
    }
    if (overflow || value > static_cast<uint64_t>(INT64_MAX)) {
      return Error(tok_line_, tok_col_,
                   StrFormat("integer literal overflows int64 at line %d, col %d", tok_line_,
                             tok_col_));
    }
    Token t = Make(Tok::kIntLit);
    t.int_val = static_cast<int64_t>(value);
    return t;
  }
  if (c == '"') {
    Advance();
    while (true) {
      char d = Peek();
      if (d == '\0' || d == '\n') {
        return Error(tok_line_, tok_col_,
                     StrFormat("unterminated string literal starting at line %d, col %d",
                               tok_line_, tok_col_));
      }
      Advance();
      if (d == '"') {
        break;
      }
      if (d == '\\') {
        // Consume the escaped character so an escaped quote doesn't end the
        // literal; the DSL rejects strings anyway, so no unescaping needed.
        if (Peek() == '\0') {
          return Error(tok_line_, tok_col_,
                       StrFormat("unterminated string literal starting at line %d, col %d",
                                 tok_line_, tok_col_));
        }
        Advance();
      }
    }
    return Make(Tok::kStrLit);
  }
  Advance();
  switch (c) {
    case '(': return Make(Tok::kLParen);
    case ')': return Make(Tok::kRParen);
    case '{': return Make(Tok::kLBrace);
    case '}': return Make(Tok::kRBrace);
    case ',': return Make(Tok::kComma);
    case ';': return Make(Tok::kSemi);
    case ':': return Match(':') ? Make(Tok::kColonColon) : Make(Tok::kColon);
    case '-': return Match('>') ? Make(Tok::kArrow) : Make(Tok::kMinus);
    case '=': return Match('=') ? Make(Tok::kEqEq) : Make(Tok::kAssign);
    case '!': return Match('=') ? Make(Tok::kNe) : Make(Tok::kBang);
    case '<':
      if (Match('=')) return Make(Tok::kLe);
      if (Match('<')) return Make(Tok::kShl);
      return Make(Tok::kLt);
    case '>':
      if (Match('=')) return Make(Tok::kGe);
      if (Match('>')) return Make(Tok::kShr);
      return Make(Tok::kGt);
    case '&': return Match('&') ? Make(Tok::kAndAnd) : Make(Tok::kAmp);
    case '|': return Match('|') ? Make(Tok::kOrOr) : Make(Tok::kPipe);
    case '+': return Make(Tok::kPlus);
    case '*': return Make(Tok::kStar);
    case '/': return Make(Tok::kSlash);
    case '%': return Make(Tok::kPercent);
    case '^': return Make(Tok::kCaret);
    default: {
      // Render non-printable bytes as \xNN so a stray control byte in the
      // input produces a readable diagnostic.
      std::string spelling = std::isprint(static_cast<unsigned char>(c)) != 0
                                 ? StrFormat("'%c'", c)
                                 : StrFormat("byte \\x%02x", static_cast<unsigned char>(c));
      return Error(tok_line_, tok_col_,
                   StrFormat("unexpected %s at line %d, col %d", spelling.c_str(), tok_line_,
                             tok_col_));
    }
  }
}

std::vector<Token> Lexer::LexAll() {
  obs::ScopedSpan span("frontend.lex");
  // The platform's DSL averages about five bytes per token; reserving for
  // four spares the vector its regrowth copies (and their peak memory).
  std::vector<Token> out;
  out.reserve(src_.size() / 4 + 1);
  while (true) {
    Token t = Next();
    bool done = (t.kind == Tok::kEof || t.kind == Tok::kError);
    out.push_back(std::move(t));
    if (done) {
      break;
    }
  }
  if (obs::Enabled()) {
    static obs::Counter* tokens = obs::Registry::Global().GetCounter(
        "icarus_frontend_tokens_total", "Tokens produced by the lexer (including EOF/error)");
    tokens->Add(static_cast<int64_t>(out.size()));
  }
  return out;
}

}  // namespace icarus::ast

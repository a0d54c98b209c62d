#include "src/ast/lexer.h"

#include <array>
#include <cstdint>

#include "src/obs/trace.h"
#include "src/support/str_util.h"

namespace icarus::ast {

namespace {

// Character classes, ASCII only (as the "C" locale's isspace/isalpha/
// isdigit): one table load instead of a chain of range tests per byte.
enum CharClass : uint8_t {
  kBlank = 1,       // ' ', '\t', '\r'
  kIdentStart = 2,  // letters and '_'
  kDigit = 4,
  kHexLetter = 8,   // a-f, A-F
};

constexpr std::array<uint8_t, 256> MakeCharClasses() {
  std::array<uint8_t, 256> classes{};
  classes[' '] = classes['\t'] = classes['\r'] = kBlank;
  for (int c = 'a'; c <= 'z'; ++c) {
    classes[c] = kIdentStart | (c <= 'f' ? kHexLetter : 0);
    classes[c - 'a' + 'A'] = kIdentStart | (c <= 'f' ? kHexLetter : 0);
  }
  classes['_'] = kIdentStart;
  for (int c = '0'; c <= '9'; ++c) {
    classes[c] = kDigit;
  }
  return classes;
}
constexpr std::array<uint8_t, 256> kCharClasses = MakeCharClasses();

bool Is(char c, uint8_t classes) {
  return (kCharClasses[static_cast<unsigned char>(c)] & classes) != 0;
}
bool IsDigit(char c) { return Is(c, kDigit); }
bool IsHexDigit(char c) { return Is(c, kDigit | kHexLetter); }

// The keyword spelled `word`, else kIdent.
Tok KeywordOr(std::string_view word) {
  switch (word.size()) {
    case 2:
      if (word == "op") return Tok::kKwOp;
      if (word == "fn") return Tok::kKwFn;
      if (word == "if") return Tok::kKwIf;
      break;
    case 3:
      if (word == "let") return Tok::kKwLet;
      break;
    case 4:
      switch (word[0]) {
        case 'e':
          if (word == "enum") return Tok::kKwEnum;
          if (word == "emit") return Tok::kKwEmit;
          if (word == "else") return Tok::kKwElse;
          break;
        case 't':
          if (word == "type") return Tok::kKwType;
          if (word == "true") return Tok::kKwTrue;
          break;
        case 'b':
          if (word == "bind") return Tok::kKwBind;
          break;
        case 'g':
          if (word == "goto") return Tok::kKwGoto;
          break;
        default:
          break;
      }
      break;
    case 5:
      if (word == "emits") return Tok::kKwEmits;
      if (word == "label") return Tok::kKwLabel;
      if (word == "false") return Tok::kKwFalse;
      break;
    case 6:
      switch (word[0]) {
        case 'e':
          if (word == "extern") return Tok::kKwExtern;
          break;
        case 'a':
          if (word == "assert") return Tok::kKwAssert;
          if (word == "assume") return Tok::kKwAssume;
          break;
        case 'r':
          if (word == "return") return Tok::kKwReturn;
          break;
        default:
          break;
      }
      break;
    case 7:
      if (word == "failure") return Tok::kKwFailure;
      if (word == "ensures") return Tok::kKwEnsures;
      break;
    case 8:
      if (word == "language") return Tok::kKwLanguage;
      if (word == "compiler") return Tok::kKwCompiler;
      if (word == "requires") return Tok::kKwRequires;
      break;
    case 9:
      if (word == "generator") return Tok::kKwGenerator;
      break;
    case 11:
      if (word == "interpreter") return Tok::kKwInterpreter;
      break;
    default:
      break;
  }
  return Tok::kIdent;
}

}  // namespace

Lexer::Lexer(std::string_view source) : src_(source) {}

Token Lexer::Make(Tok kind) const {
  Token t = tok_;
  t.kind = kind;
  t.length = static_cast<uint32_t>(pos_ - tok_.offset);
  return t;
}

Token Lexer::Error(int line, int col, std::string message) {
  Token t = Make(Tok::kError);
  t.line = line;
  t.col = col;
  error_ = std::move(message);
  return t;
}

Token Lexer::Next() {
  // Trivia. Only a newline moves the line; a column is an offset from the
  // start of its line, worked out when a token needs it.
  const size_t size = src_.size();
  const char* const text = src_.data();
  size_t pos = pos_;
  while (pos < size) {
    const char c = text[pos];
    if (Is(c, kBlank)) {
      ++pos;
    } else if (c == '\n') {
      NewLine(pos++);
    } else if (c == '/' && At(pos + 1) == '/') {
      pos += 2;
      while (pos < size && text[pos] != '\n' && text[pos] != '\0') {
        ++pos;
      }
    } else if (c == '/' && At(pos + 1) == '*') {
      const int start_line = line_;
      const int start_col = Col(pos);
      pos += 2;
      while (!(At(pos) == '*' && At(pos + 1) == '/')) {
        const char d = At(pos);
        if (d == '\0') {
          // A classic truncated-file symptom.
          pos_ = pos;
          tok_.offset = static_cast<uint32_t>(pos);
          return Error(start_line, start_col,
                       StrFormat("unterminated block comment starting at line %d, col %d "
                                 "(truncated file?)",
                                 start_line, start_col));
        }
        if (d == '\n') {
          NewLine(pos);
        }
        ++pos;
      }
      pos += 2;
    } else {
      break;
    }
  }
  pos_ = pos;
  tok_.offset = static_cast<uint32_t>(pos_);
  tok_.line = line_;
  tok_.col = Col(pos_);
  const char c = At(pos_);
  if (c == '\0') {
    return Make(Tok::kEof);
  }
  if (Is(c, kIdentStart)) {
    size_t end = pos_ + 1;
    while (end < size && Is(text[end], kIdentStart | kDigit)) {
      ++end;
    }
    pos_ = end;
    return Make(KeywordOr(src_.substr(tok_.offset, pos_ - tok_.offset)));
  }
  if (IsDigit(c)) {
    if (c == '0' && (At(pos_ + 1) == 'x' || At(pos_ + 1) == 'X')) {
      pos_ += 2;
      if (!IsHexDigit(At(pos_))) {
        return Error(tok_.line, tok_.col,
                     StrFormat("hex literal with no digits at line %d, col %d", tok_.line,
                               tok_.col));
      }
      while (IsHexDigit(At(pos_))) {
        ++pos_;
      }
    } else {
      while (IsDigit(At(pos_))) {
        ++pos_;
      }
    }
    int64_t value = 0;
    if (!ReadIntLiteral(src_.substr(tok_.offset, pos_ - tok_.offset), &value)) {
      return Error(tok_.line, tok_.col,
                   StrFormat("integer literal overflows int64 at line %d, col %d", tok_.line,
                             tok_.col));
    }
    return Make(Tok::kIntLit);
  }
  if (c == '"') {
    ++pos_;
    while (true) {
      const char d = At(pos_);
      if (d == '\0' || d == '\n') {
        return Error(tok_.line, tok_.col,
                     StrFormat("unterminated string literal starting at line %d, col %d",
                               tok_.line, tok_.col));
      }
      ++pos_;
      if (d == '"') {
        break;
      }
      if (d == '\\') {
        // Consume the escaped character so an escaped quote doesn't end the
        // literal; the DSL rejects strings anyway, so no unescaping needed.
        const char escaped = At(pos_);
        if (escaped == '\0') {
          return Error(tok_.line, tok_.col,
                       StrFormat("unterminated string literal starting at line %d, col %d",
                                 tok_.line, tok_.col));
        }
        if (escaped == '\n') {
          NewLine(pos_);
        }
        ++pos_;
      }
    }
    return Make(Tok::kStrLit);
  }
  ++pos_;
  // The second byte of a two-byte operator, consumed if it is `next`.
  auto match = [this](char next) {
    if (At(pos_) != next) {
      return false;
    }
    ++pos_;
    return true;
  };
  switch (c) {
    case '(': return Make(Tok::kLParen);
    case ')': return Make(Tok::kRParen);
    case '{': return Make(Tok::kLBrace);
    case '}': return Make(Tok::kRBrace);
    case ',': return Make(Tok::kComma);
    case ';': return Make(Tok::kSemi);
    case ':': return Make(match(':') ? Tok::kColonColon : Tok::kColon);
    case '-': return Make(match('>') ? Tok::kArrow : Tok::kMinus);
    case '=': return Make(match('=') ? Tok::kEqEq : Tok::kAssign);
    case '!': return Make(match('=') ? Tok::kNe : Tok::kBang);
    case '<':
      if (match('=')) return Make(Tok::kLe);
      if (match('<')) return Make(Tok::kShl);
      return Make(Tok::kLt);
    case '>':
      if (match('=')) return Make(Tok::kGe);
      if (match('>')) return Make(Tok::kShr);
      return Make(Tok::kGt);
    case '&': return Make(match('&') ? Tok::kAndAnd : Tok::kAmp);
    case '|': return Make(match('|') ? Tok::kOrOr : Tok::kPipe);
    case '+': return Make(Tok::kPlus);
    case '*': return Make(Tok::kStar);
    case '/': return Make(Tok::kSlash);
    case '%': return Make(Tok::kPercent);
    case '^': return Make(Tok::kCaret);
    default: {
      // Render non-printable bytes as \xNN so a stray control byte in the
      // input produces a readable diagnostic.
      const auto byte = static_cast<unsigned char>(c);
      std::string spelling = byte >= 0x20 && byte < 0x7f ? StrFormat("'%c'", c)
                                                         : StrFormat("byte \\x%02x", byte);
      return Error(tok_.line, tok_.col,
                   StrFormat("unexpected %s at line %d, col %d", spelling.c_str(), tok_.line,
                             tok_.col));
    }
  }
}

std::vector<Token> Lexer::LexAll() {
  obs::ScopedSpan span("frontend.lex");
  std::vector<Token> out;
  if (src_.size() >= UINT32_MAX) {
    tok_ = Token{};
    out.push_back(Error(1, 1, StrFormat("source of %zu bytes is too large to lex", src_.size())));
    return out;
  }
  // The platform's DSL averages about five bytes per token; reserving for
  // four spares the vector its regrowth copies (and their peak memory).
  out.reserve(src_.size() / 4 + 1);
  while (true) {
    out.push_back(Next());
    if (out.back().kind == Tok::kEof || out.back().kind == Tok::kError) {
      break;
    }
  }
  return out;
}

}  // namespace icarus::ast

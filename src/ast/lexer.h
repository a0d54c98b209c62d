// Lexer for the Icarus DSL. Supports `//` line comments and `/* */` block
// comments, decimal and hex integer literals, and the operator set used by
// the paper's figures.
//
// The lexer reads `source` in place and keeps no copy of it: the tokens it
// returns are offsets into `source` (token.h), so they are read against the
// same text, which must outlive them. A NUL byte ends the input, as the end
// of `source` does.
#ifndef ICARUS_AST_LEXER_H_
#define ICARUS_AST_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/ast/token.h"

namespace icarus::ast {

class Lexer {
 public:
  explicit Lexer(std::string_view source);

  // Lexes the entire input. The last token is kEof, or kError when the
  // input is malformed; error() then holds its diagnostic.
  std::vector<Token> LexAll();

  // The diagnostic of the kError token; empty if LexAll returned none.
  const std::string& error() const { return error_; }

 private:
  Token Next();
  char At(size_t pos) const { return pos < src_.size() ? src_[pos] : '\0'; }
  int Col(size_t pos) const { return static_cast<int>(pos - line_start_) + 1; }
  void NewLine(size_t newline_pos) {
    ++line_;
    line_start_ = newline_pos + 1;
  }
  Token Make(Tok kind) const;
  Token Error(int line, int col, std::string message);

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  size_t line_start_ = 0;  // Offset of the first byte of line_.
  Token tok_;              // The token being lexed: its kind, start and position.
  std::string error_;
};

}  // namespace icarus::ast

#endif  // ICARUS_AST_LEXER_H_

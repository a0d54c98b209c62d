// Lexer for the Icarus DSL. Supports `//` line comments and `/* */` block
// comments, decimal and hex integer literals, and the operator set used by
// the paper's figures.
#ifndef ICARUS_AST_LEXER_H_
#define ICARUS_AST_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/ast/token.h"
#include "src/support/status.h"

namespace icarus::ast {

class Lexer {
 public:
  explicit Lexer(std::string_view source);

  // Lexes the entire input. On error, the final token is kError with its
  // diagnostic in `message`. Token texts are views into `source`.
  std::vector<Token> LexAll();

 private:
  Token Next();
  char Peek(int ahead = 0) const;
  char Advance();
  bool Match(char c);
  bool SkipTrivia(int* err_line, int* err_col);
  Token Make(Tok kind);
  Token Error(int line, int col, std::string message);

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  int tok_line_ = 1;
  int tok_col_ = 1;
  size_t tok_offset_ = 0;
};

}  // namespace icarus::ast

#endif  // ICARUS_AST_LEXER_H_

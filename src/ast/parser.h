// Recursive-descent parser for the Icarus DSL.
//
// Multiple source chunks (prelude, language declarations, compiler,
// interpreter, generators) are parsed incrementally into one Module; the
// resolver then binds names across all of them (see resolver.h).
#ifndef ICARUS_AST_PARSER_H_
#define ICARUS_AST_PARSER_H_

#include <string_view>

#include "src/ast/ast.h"
#include "src/support/status.h"

namespace icarus::ast {

class Parser {
 public:
  // Parses `source` (a sequence of top-level declarations) appending into
  // `module`, which must not be frozen (ast.h). Returns an error with
  // line/column on malformed input. The module first copies `source` into
  // its arena and parses that copy, so every name it keeps is a view into
  // its own copy: `source` need only outlive the call.
  static Status ParseInto(Module* module, std::string_view source);
};

}  // namespace icarus::ast

#endif  // ICARUS_AST_PARSER_H_

// Parser for the Boogie-2 subset the backend emits. It validates the
// generated programs (print → parse → print fixpoint) and runs the
// dead-code-elimination pass on standalone .bpl text, the way the paper
// ships it. Test code: boogie_test is its only user.
#ifndef ICARUS_TESTS_BOOGIE_PARSER_H_
#define ICARUS_TESTS_BOOGIE_PARSER_H_

#include <memory>
#include <string_view>

#include "src/boogie/boogie_ast.h"
#include "src/support/status.h"

namespace icarus::boogie {

StatusOr<std::unique_ptr<Program>> ParseProgram(std::string_view source);

}  // namespace icarus::boogie

#endif  // ICARUS_TESTS_BOOGIE_PARSER_H_

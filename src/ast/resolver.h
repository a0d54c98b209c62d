// Name resolution and type checking for the Icarus DSL.
//
// Runs after all source chunks are parsed into a Module. Responsibilities:
//   - bind type names, language references, op signatures, function and
//     extern signatures;
//   - bind compiler/interpreter op callbacks to their `language` ops
//     (signatures must match);
//   - resolve every expression (variable slots, callees, enum literals) and
//     check types, recording what each declaration references;
//   - enforce the label discipline from §3.2 of the paper: labels are
//     second-class (no storing/returning), `goto` only inside interpreter
//     callbacks, locally-declared labels have exactly one textual `bind`,
//     and label arguments may only flow into `label` parameters;
//   - reject recursion (the CFA construction requires a non-recursive call
//     graph, §5 of the paper), through extern contract clauses too;
//   - reject a second function, extern, or op callback (within one compiler
//     or interpreter) of the same name.
//
// A recursion error gives the position of the call that closes the cycle.
//
// Post-conditions of a successful Resolve, which the evaluator, the
// meta-executor, the fingerprint and the CFA builder rely on without
// re-checking (frontend_test Resolver.PlatformMeetsThePostconditions checks
// them on the platform):
//   - every Expr, in bodies and in extern contracts, has a `type`;
//   - every kCall has exactly one of `callee_fn` and `callee_ext`;
//   - every parameter, kVar, kLet, kAssign, label and bind/goto slot is in
//     [0, num_slots) of its function (or extern, for contracts);
//   - every kEmit has `emit_lang` and `emit_op`; an `emit Helper(...)` has
//     been rewritten into a kExprStmt call;
//   - every op callback has `op` set and is its compiler's or interpreter's
//     `by_op` entry for that op;
//   - Module::functions_by_name and externs_by_name index every function
//     and extern;
//   - every function's, extern's and op's `refs` (ast.h References) lists
//     exactly the callees, emitted ops and enum parameter and literal types
//     its own body, contract clauses or signature name.
#ifndef ICARUS_AST_RESOLVER_H_
#define ICARUS_AST_RESOLVER_H_

#include "src/ast/ast.h"
#include "src/support/status.h"

namespace icarus::ast {

// Resolves the whole module in place. Any error aborts resolution. The
// module must not be frozen (ast.h).
Status Resolve(Module* module);

}  // namespace icarus::ast

#endif  // ICARUS_AST_RESOLVER_H_

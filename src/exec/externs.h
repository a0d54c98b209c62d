// Host bindings for the extern functions that model the JIT's compile-time
// register allocator and the run-time machine (register file, stack, ABI).
//
// These are the *stateful* externs: they read and mutate the path's
// machine::MachineState. Pure runtime-model externs (Value::typeTag,
// Shape::numFixedSlots, ...) deliberately have no handler — the evaluator
// gives them uninterpreted-function semantics governed by their
// requires/ensures contracts. The mini-JS VM implements both kinds over its
// Runtime for the extracted C++ (vm/ic.cc).
#ifndef ICARUS_EXEC_EXTERNS_H_
#define ICARUS_EXEC_EXTERNS_H_

#include "src/ast/ast.h"
#include "src/exec/evaluator.h"

namespace icarus::exec {

// Registers the machine/compiler builtins into `registry`. `module` must
// outlive the registry (handlers look up result types from it).
void RegisterMachineBuiltins(ExternRegistry* registry, const ast::Module* module);

// Extracts the concrete integer a compile-time value must carry (register
// numbers, operand ids, label ids are always concrete).
StatusOr<int64_t> GetConstInt(const Value& v);

}  // namespace icarus::exec

#endif  // ICARUS_EXEC_EXTERNS_H_

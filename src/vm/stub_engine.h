// Executor for compiled IC stubs.
//
// A CompiledStub is a handle on an IcCompiler's stub-table entry: the MASM
// an attach emitted, bound to its stub runner, the straight-line C++
// function the build compiled for that instruction list from an attached
// path of the verifier's symbolic meta-execution, with every extracted
// interp_MASM_<op> inlined and the operands that were constants on the path
// as literals. Run makes one call into it per hit; the runner keeps the
// register file and value stack in its own frame, so one engine serves any
// number of concurrent runs. Its definition sits with the binding layer in
// ic.cc. A contract the stub violates throws icarus::InternalError naming
// it.
#ifndef ICARUS_VM_STUB_ENGINE_H_
#define ICARUS_VM_STUB_ENGINE_H_

#include "src/ast/ast.h"
#include "src/vm/ic.h"
#include "src/vm/object.h"

namespace icarus::vm {

enum class StubOutcome {
  kReturn,  // Fast path succeeded; result is valid.
  kBail,    // A guard failed; caller takes the slow path.
};

class StubEngine {
 public:
  // `masm` is the platform's MASM language, the one stubs are decoded
  // against; it must have exactly the ops of the extracted header.
  explicit StubEngine(const ast::LanguageDecl* masm);

  // Executes `stub`. `operands[i]` is loaded into the stub's i-th input
  // register. On kReturn, *result holds the stub's output value.
  StubOutcome Run(Runtime* runtime, const CompiledStub& stub, const JsValue* operands,
                  int num_operands, JsValue* result) const;
};

}  // namespace icarus::vm

#endif  // ICARUS_VM_STUB_ENGINE_H_

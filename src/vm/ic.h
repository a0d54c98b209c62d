// Inline-cache machinery for the mini-JS VM: the binding layer of §3.4.
//
// The build extracts the verified platform to C++ (src/extract/) and ic.cc
// binds that code to the VM's Runtime, so the VM runs the code Icarus
// verified and nothing else:
//
//   - attach runs the extracted chain: a tryAttach* generator, the
//     compile_CacheIR_* callbacks its emits stream into, and their MASM
//     emits, over the compile-time half of machine::MachineState (the
//     register allocator model the verifier checks);
//   - the emitted MASM is decoded once, labels resolved to instruction
//     indices, and bound to its stub runner: the straight-line function the
//     build compiled, with every interp_MASM_<op> inlined, for an
//     instruction list that an attached path of the verifier's symbolic
//     meta-execution emitted. A list that no explored path emitted is
//     refused with InternalError;
//   - StubEngine::Run (stub_engine.h) calls the runner on every hit.
//
// The contracts of the extracted code stay live in both phases: a violated
// one throws icarus::InternalError naming it.
#ifndef ICARUS_VM_IC_H_
#define ICARUS_VM_IC_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/platform/platform.h"
#include "src/vm/object.h"

namespace icarus::vm {

// The entry point of one stub runner (icarus_extracted::kStubRunners): loads
// `inputs` into the registers the runner was compiled for, runs its
// instruction list straight through, reading the operands the list does not
// fix from `operands`, and on a return stores the output register to
// *result. Returns false when the stub bailed.
using StubRunner = bool (*)(Runtime* runtime, const JsValue* inputs, const int64_t* operands,
                            JsValue* result);

// One MASM instruction as attach decodes it: its op (the index among the
// MASM language's ops) and operands, with labels resolved to instruction
// indices (kBailTarget for the shared failure path).
struct MasmInstr {
  static constexpr int kMaxArgs = 4;
  int op = 0;
  int num_args = 0;
  int64_t args[kMaxArgs] = {0, 0, 0, 0};
};

inline constexpr int64_t kBailTarget = -2;

struct CompiledStub {
  StubRunner runner = nullptr;
  // Every instruction's operands, flattened in instruction order.
  std::vector<int64_t> operands;
  // Register that holds each input operand at entry (operand i → reg[i]).
  std::vector<int> operand_regs;
  std::string generator;  // For diagnostics.

  // The same code on the same input registers, whichever generator made it.
  bool SameCode(const CompiledStub& other) const {
    return runner == other.runner && operands == other.operands &&
           operand_regs == other.operand_regs;
  }
};

// Concrete arguments for a generator invocation, aligned with its parameter
// list: Value params take the boxed input; operand-id params allocate the
// operand (their `boxed` is the same input); enums/keys take raw payloads.
struct ConcreteArg {
  enum class Kind { kBoxedValue, kOperand, kRaw };
  Kind kind = Kind::kBoxedValue;
  JsValue boxed;      // kBoxedValue / kOperand.
  int64_t raw = 0;    // kRaw (enum index, atom id, ...).
};

class IcCompiler {
 public:
  // Throws InternalError when `platform` is not the platform the linked IC
  // code was extracted from (their fingerprints differ).
  explicit IcCompiler(const platform::Platform* platform);

  // Runs the extracted `generator_name` on `args`. Returns the compiled stub
  // on Attach, nullopt on NoAction, and an error for an unknown generator,
  // an argument-count mismatch or a label left unbound. A contract the
  // generator or compiler violates throws InternalError, and so does
  // emitted code that Compile refuses.
  StatusOr<std::optional<CompiledStub>> TryAttach(Runtime* runtime,
                                                  const std::string& generator_name,
                                                  const std::vector<ConcreteArg>& args);

  // Binds MASM that `generator` emitted, decoded, to the runner the build
  // compiled for that instruction list on those input registers; TryAttach
  // ends here. Throws InternalError naming `generator` and the op list when
  // no attached path of the verifier's symbolic meta-execution emitted it.
  CompiledStub Compile(const std::string& generator, const std::vector<MasmInstr>& code,
                       std::vector<int> operand_regs) const;

  const ast::LanguageDecl* masm() const { return masm_; }

  int64_t attach_calls() const { return attach_calls_; }

 private:
  const ast::LanguageDecl* masm_;
  std::unordered_map<std::string, size_t> generators_;  // Name → extracted table index.
  // Op list and input registers (RunnerKey in ic.cc) → indices into the
  // extracted runner table, the runner fixing the most operands first.
  std::unordered_map<std::string, std::vector<size_t>> runners_;
  int64_t attach_calls_ = 0;
};

}  // namespace icarus::vm

#endif  // ICARUS_VM_IC_H_

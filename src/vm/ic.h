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
//   - the emitted MASM is decoded once into a CompiledStub: per instruction,
//     a thunk that calls the extracted interp_MASM_<op> and the baked
//     operands, with labels resolved to instruction indices;
//   - StubEngine::Run (stub_engine.h) walks that array on every hit.
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

class StubHost;  // One stub run's register file and value stack (ic.cc).

// Runs one extracted interp_MASM_<op> on its baked operands and returns
// where control goes next (see icarus_extracted::kFallThrough).
using MasmThunk = int64_t (*)(StubHost& host, const int64_t* operands);

// One decoded MASM instruction. Label operands hold the resolved
// instruction index (kBailTarget for the shared failure path).
struct CompiledInstr {
  static constexpr int kMaxArgs = 4;
  MasmThunk thunk = nullptr;
  int64_t args[kMaxArgs] = {0, 0, 0, 0};

  bool operator==(const CompiledInstr&) const = default;
};

inline constexpr int64_t kBailTarget = -2;

struct CompiledStub {
  std::vector<CompiledInstr> code;
  // Register that holds each input operand at entry (operand i → reg[i]).
  std::vector<int> operand_regs;
  std::string generator;  // For diagnostics.

  // The same code on the same input registers, whichever generator made it.
  bool SameCode(const CompiledStub& other) const {
    return code == other.code && operand_regs == other.operand_regs;
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

  // Runs the extracted `generator_name` on `args`. Returns the decoded stub
  // on Attach, nullopt on NoAction, and an error for an unknown generator,
  // an argument-count mismatch or malformed emitted code. A contract the
  // generator or compiler violates throws InternalError.
  StatusOr<std::optional<CompiledStub>> TryAttach(Runtime* runtime,
                                                  const std::string& generator_name,
                                                  const std::vector<ConcreteArg>& args);

  const ast::LanguageDecl* masm() const { return masm_; }

  int64_t attach_calls() const { return attach_calls_; }

 private:
  const ast::LanguageDecl* masm_;
  std::unordered_map<std::string, size_t> generators_;  // Name → extracted table index.
  std::vector<uint8_t> register_operands_;  // Per MASM op: bit i set when operand i is a register.
  int64_t attach_calls_ = 0;
};

}  // namespace icarus::vm

#endif  // ICARUS_VM_IC_H_

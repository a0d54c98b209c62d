// Inline-cache machinery for the mini-JS VM: the binding layer of §3.4.
//
// The build extracts the verified platform to C++ (src/extract/) and ic.cc
// binds that code to the VM's Runtime, so the VM runs the code Icarus
// verified and nothing else. One attach path serves the interpreter, the
// tests and the benches:
//
//   - the caller names the generator by its index in the extracted table
//     (FindGenerator), resolved once: the interpreter does it at
//     construction, and the by-name entry points look the name up and take
//     the same path;
//   - the extracted chain runs on the IcCompiler's one AttachHost, reset per
//     attach: a tryAttach* generator, the compile_CacheIR_* callbacks its
//     emits stream into, and their MASM emits, over the compile-time half of
//     machine::MachineState (the register allocator model the verifier
//     checks), whose operand table is indexed by the dense operand id;
//   - the emitted MASM is decoded with labels resolved to instruction
//     indices. Decoded code plus input registers is the key of the
//     IcCompiler's stub table: an attach whose code the table holds returns
//     that entry and binds nothing;
//   - new code is bound to its stub runner: the straight-line function the
//     build compiled, with every interp_MASM_<op> inlined, for an
//     instruction list that an attached path of the verifier's symbolic
//     meta-execution emitted. The runner table is searched by a 64-bit hash
//     of op list and input registers, and each runner the hash finds is
//     confirmed against its own ops, input registers and fixed operands
//     before it binds. A list that no explored path emitted is refused with
//     InternalError;
//   - StubEngine::Run (stub_engine.h) calls the runner on every hit.
//
// The generator runs on every attach, table hit or not: its guards read the
// concrete operands. Once the stub table holds an attach's code and the
// host's buffers have grown to it, the attach allocates nothing.
//
// The contracts of the extracted code stay live in both phases: a violated
// one throws icarus::InternalError naming it.
#ifndef ICARUS_VM_IC_H_
#define ICARUS_VM_IC_H_

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
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

class IcCompiler;

// A stub the IcCompiler attached: a handle on one entry of its stub table,
// valid while that IcCompiler lives.
struct CompiledStub {
  StubRunner runner = nullptr;
  // Every instruction's operands, flattened in instruction order, as the
  // table holds them.
  const int64_t* operands = nullptr;
  int num_inputs = 0;  // Input operands, loaded into the runner's input registers.
  const IcCompiler* table = nullptr;  // The IcCompiler whose table holds the entry.

  // The same code on the same input registers, whichever generator made it:
  // the same table entry. An entry with no operands has a null pointer, but
  // then its runner alone fixes its code.
  bool SameCode(const CompiledStub& other) const {
    return table == other.table && runner == other.runner && operands == other.operands;
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

class AttachHost;

// Attaches stubs for one VM. Single-threaded: attaches share one AttachHost,
// decode buffer and stub table (and the attach_calls counter).
class IcCompiler {
 public:
  // Throws InternalError when `platform` is not the platform the linked IC
  // code was extracted from (their fingerprints differ).
  explicit IcCompiler(const platform::Platform* platform);
  ~IcCompiler();
  IcCompiler(const IcCompiler&) = delete;
  IcCompiler& operator=(const IcCompiler&) = delete;

  // The index of extracted generator `name`, or -1 when there is none.
  int FindGenerator(std::string_view name) const;

  // The attach path: runs the extracted generator at index `generator` on
  // `args`. Returns the compiled stub on Attach, nullopt on NoAction, and an
  // error for an unknown generator, an argument-count mismatch or a label
  // left unbound. A contract the generator or compiler violates throws
  // InternalError, and so does emitted code that no runner was built for.
  StatusOr<std::optional<CompiledStub>> TryAttach(Runtime* runtime, int generator,
                                                  std::span<const ConcreteArg> args);

  // FindGenerator(generator_name), then the attach path.
  StatusOr<std::optional<CompiledStub>> TryAttach(Runtime* runtime,
                                                  const std::string& generator_name,
                                                  const std::vector<ConcreteArg>& args);

  // Binds MASM that `generator` emitted, decoded, on those input registers:
  // the stub table's entry for it, or a new one bound to the runner the
  // build compiled for that instruction list on those registers. TryAttach
  // ends here. Throws InternalError naming `generator` and the op list when
  // no attached path of the verifier's symbolic meta-execution emitted it.
  CompiledStub Compile(const std::string& generator, const std::vector<MasmInstr>& code,
                       const std::vector<int>& operand_regs);

  const ast::LanguageDecl* masm() const { return masm_; }

  int64_t attach_calls() const { return attach_calls_; }

 private:
  // One stub table entry: its runner (an index into the extracted runner
  // table, which also fixes the op list and input registers) and its
  // flattened operands.
  struct StubEntry {
    size_t runner;
    std::vector<int64_t> operands;
  };

  CompiledStub Bind(int generator, std::span<const MasmInstr> code,
                    std::span<const int> input_regs);
  CompiledStub StubFor(const StubEntry& entry) const;

  const ast::LanguageDecl* masm_;
  std::unique_ptr<AttachHost> host_;
  std::vector<MasmInstr> code_;    // The attach's decoded MASM.
  std::vector<int64_t> operands_;  // The same, its operands flattened.
  // Extracted generator names, sorted, with their table indices.
  std::vector<std::pair<std::string_view, int>> generators_;
  // (hash of op list and input registers, runner index), sorted by hash and,
  // within a hash, the runner fixing the most operands first.
  std::vector<std::pair<uint64_t, size_t>> runners_;
  // The stub table: entries in the order they were made (a deque, so an
  // entry never moves and the operand pointers CompiledStubs hold stay
  // valid), and each entry's index under the hash of its decoded code and
  // input registers.
  std::deque<StubEntry> stubs_;
  std::unordered_multimap<uint64_t, size_t> stub_index_;
  int64_t attach_calls_ = 0;
};

}  // namespace icarus::vm

#endif  // ICARUS_VM_IC_H_

// The C++ extraction backend (§3.4): translates the verified Icarus code
// into C++ that a host application links in place of its hand-written JIT
// pieces. The output is organized the way the paper describes —
//
//   - one C++ function per top-level stub generator,
//   - one visitor function per compiler callback (compile_<Lang>_<Op>) and
//     per interpreter callback (interp_<Lang>_<Op>),
//   - the binding layer: every function is a template over the host type,
//     so an embedder binds the externs with a plain (final, non-virtual)
//     class and every call into it inlines. `binding_skeleton` lists the
//     members such a class provides.
//
// Generators run the compiler callback of each source op they emit directly
// (the streaming meta-stub of Figure 3), and compiler callbacks hand each
// target op to `host.emit(<Lang>Op::k<Op>, operands...)`. Interpreter
// callbacks return where control goes next: kFallThrough, the id of the
// label they jump to, or kStubReturn. Generators are also listed by name in
// `kGenerators`.
//
// Stub runners. The backend runs the verifier's own symbolic meta-execution
// (SME) over every generator and records the MASM buffer of each path that
// attached a stub. Each distinct buffer becomes one straight-line runner,
// `stub_runner_<N>`, that calls the interp_MASM_* callbacks in order with
// every callback inlined. The runner is keyed on the instruction list, on
// every operand that is a constant on the path (registers, labels,
// conditions, tags) and on the registers the path allocated for the
// generator's inputs; the remaining operands (shapes, slots, atoms,
// input-derived immediates) are read from the stub at run time. `kStubRunners`
// lists the keys. A runner equals "walk this exact list with these operand
// values", so any runner whose fixed values equal a stub's runs it
// correctly; SME decides only which lists have a runner. Extraction fails,
// naming the generator, when its SME result is inconclusive, when a
// register or label operand is not a constant, when a register lies outside
// the register file, or when a label targets an earlier instruction
// (runners only jump forward).
//
// The mini-JS VM is the embedder: the build runs this backend over the
// embedded platform (src/extract/extract_main.cc) and src/vm/ic.cc binds the
// result to its Runtime, so the VM attaches with exactly this code and runs
// a stub only through the runner of a verified path.
#ifndef ICARUS_EXTRACT_CPP_BACKEND_H_
#define ICARUS_EXTRACT_CPP_BACKEND_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/exec/evaluator.h"
#include "src/meta/meta_executor.h"
#include "src/platform/platform.h"
#include "src/support/status.h"

namespace icarus::extract {

// The key of one stub runner: the MASM instruction list an attached path
// emitted, with every operand that is a constant on the path fixed.
struct StubRunnerKey {
  std::vector<const ast::OpDecl*> ops;  // One per instruction.
  // One per operand, flattened over the instructions in order: the value
  // when the operand is a constant on the path (a label holds its resolved
  // instruction index, or -2 for the failure label), nullopt when the runner
  // reads it from the stub.
  std::vector<std::optional<int64_t>> operands;
  std::vector<int> input_regs;  // Register of each generator input at entry.

  bool operator==(const StubRunnerKey&) const = default;
};

struct StubRunner {
  StubRunnerKey key;
  std::vector<std::string> generators;  // Whose paths emitted it, first seen first.
};

// The runner key of one attached path: `emits` as SME left it with every
// label bound, and the registers the path allocated for the generator's
// inputs. Fails, naming `generator`, when a register or label operand is not
// a constant, a register lies outside the register file or a label targets
// an earlier instruction.
StatusOr<StubRunnerKey> RunnerKeyForPath(std::string_view generator,
                                         const exec::EmitState& emits,
                                         const std::vector<int>& input_regs);

// Runs `executor` over the meta-stub of `generator` and returns the runner
// key of each attached path. Fails, naming the generator, when the SME
// result is inconclusive.
StatusOr<std::vector<StubRunnerKey>> RunnerKeysForGenerator(const platform::Platform& platform,
                                                            std::string_view generator,
                                                            meta::MetaExecutor& executor);

// Runs SME over every generator of `platform` (a fresh executor each) and
// returns one runner per distinct key, in the order the keys were first seen.
StatusOr<std::vector<StubRunner>> EnumerateStubRunners(const platform::Platform& platform);

struct CppExtraction {
  std::string header;            // Self-contained generated header.
  std::string binding_skeleton;  // `class SkeletonHost final` with stub members.
};

// Extracts the loaded platform, stub runners included. The header records
// the platform's Fingerprint() as `icarus_extracted::kPlatformFingerprint`.
StatusOr<CppExtraction> ExtractCpp(const platform::Platform& platform);

}  // namespace icarus::extract

#endif  // ICARUS_EXTRACT_CPP_BACKEND_H_

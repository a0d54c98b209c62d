// The SpiderMonkey CacheIR platform, written in the Icarus DSL.
//
// This is the port the paper's evaluation builds (§4.1–§4.4): the CacheIR
// and MacroAssembler (MASM) instruction subsets, the CacheIR→MASM compiler,
// an executable MASM semantics with safety contracts, the JS runtime
// contract layer, 21 IC stub generators (Figure 12), and six historical
// security bugs in buggy/fixed pairs (Figure 14).
//
// All of it is DSL source text embedded as string constants; Platform::Load
// parses and resolves it and wires up the machine builtins, giving callers a
// ready-to-verify module.
#ifndef ICARUS_PLATFORM_PLATFORM_H_
#define ICARUS_PLATFORM_PLATFORM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/exec/evaluator.h"
#include "src/meta/meta_executor.h"
#include "src/support/status.h"

namespace icarus::platform {

// DSL source chunks (each parses standalone into a shared module).
const char* PreludeSource();      // Types, runtime contracts, helpers.
const char* CacheIRSource();      // language CacheIR { ... }
const char* MasmSource();         // language MASM { ... }
const char* CompilerSource();     // compiler CacheIRCompiler : CacheIR -> MASM
const char* InterpreterSource();  // interpreter MASMInterp : MASM
const char* GeneratorsSource();   // 21 generators + shared emit helpers.

// One historical bug from Figure 14, as a pair of generator variants (plus
// any supporting callbacks) layered on top of the base platform.
struct BugDef {
  const char* id;          // Bugzilla id, e.g. "1685925".
  const char* summary;     // e.g. "Get TypedArray Length".
  const char* layer;       // "CacheIR Generator" / "CacheIR Compiler" / ...
  const char* kind;        // e.g. "OOB Memory Read".
  const char* buggy_src;   // DSL source declaring generator `bug<id>_buggy`.
  const char* fixed_src;   // DSL source declaring generator `bug<id>_fixed`.
};
const std::vector<BugDef>& Bugs();

// The 21 ported generators of Figure 12, with their table labels.
struct GeneratorInfo {
  const char* operation;  // e.g. "Compare".
  const char* name;       // Table label, e.g. "Int32".
  const char* function;   // DSL generator name, e.g. "tryAttachCompareInt32".
};
const std::vector<GeneratorInfo>& Fig12Generators();

// Additional generators ported beyond the Figure-12 set (the incremental
// extension story of §5); verified by the same pipeline.
const std::vector<GeneratorInfo>& ExtensionGenerators();

// True for the CacheIR operand-id types (ValueId, ObjectId, Int32Id,
// StringId, SymbolId): a generator parameter of one of them is a stub input
// held in a register.
bool IsOperandIdType(const ast::Type* type);

class Platform {
 public:
  // Loads the standard platform (everything above, bugs included).
  static StatusOr<std::unique_ptr<Platform>> Load();
  // Loads the platform plus extra DSL source chunks (tests use this).
  static StatusOr<std::unique_ptr<Platform>> LoadWithExtra(
      const std::vector<std::string>& extra_sources);

  const ast::Module& module() const { return *module_; }
  // Bound once by Load; nothing registers handlers after it.
  const exec::ExternRegistry& externs() const { return externs_; }

  // Builds the meta-stub for `generator_name` with the standard input
  // convention: parameters are read from the generator signature — Value /
  // enum / Int32 parameters become fresh symbolic inputs, and operand-id
  // parameters (ValueId, ObjectId, Int32Id, ...) allocate an input register
  // whose run-time content is an independent fresh symbolic value.
  StatusOr<meta::MetaStub> MakeMetaStub(const std::string& generator_name) const;

  // Total Icarus LoC attributable to `generator_name`: its own source plus
  // the sources of everything in its call/emit graph (compiler callbacks,
  // interpreter callbacks, helpers), the way Figure 12 counts.
  int TotalLoc(const std::string& generator_name) const;

  // Stable fingerprint of the loaded platform: hashes every function's name
  // and source text (top-level functions plus compiler/interpreter callbacks)
  // and the language op inventories. Two processes that load the same
  // platform sources agree; any source edit changes it. The resume journal
  // uses this to refuse mixing verdicts across different platforms.
  std::string Fingerprint() const;

  // Inventory counters (§4.1 reproduction).
  int NumCacheIROps() const;
  int NumMasmOps() const;
  int PreludeLoc() const;
  int CompilerLoc() const;
  int InterpreterLoc() const;

 private:
  Platform() = default;
  std::unique_ptr<ast::Module> module_;
  exec::ExternRegistry externs_;
};

}  // namespace icarus::platform

#endif  // ICARUS_PLATFORM_PLATFORM_H_

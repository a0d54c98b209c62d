// The C++ extraction backend (§3.4): translates the verified Icarus code
// into C++ that a host application links in place of its hand-written JIT
// pieces. The output is organized the way the paper describes —
//
//   - one C++ function per top-level stub generator,
//   - one visitor function per compiler callback (compile_<Lang>_<Op>) and
//     per interpreter callback (interp_<Lang>_<Op>),
//   - a binding-layer interface (`class Host`) declaring every extern the
//     DSL code uses, plus an auto-generated skeleton implementation the
//     developer fills in to bridge to the real engine.
//
// Nothing links or runs the extracted code yet: extract_test compiles the
// header with -fsyntax-only. The mini-JS VM in src/vm/ attaches its ICs by
// running the verified generators through the concrete evaluator and runs a
// hit on the hand-written StubEngine, so Figure 13 measures that path, not
// extracted code.
#ifndef ICARUS_EXTRACT_CPP_BACKEND_H_
#define ICARUS_EXTRACT_CPP_BACKEND_H_

#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/support/status.h"

namespace icarus::extract {

struct CppExtraction {
  std::string header;            // Self-contained generated header.
  std::string binding_skeleton;  // `class SkeletonHost : public Host` stub.
};

// `host_externs` lists externs implemented by the embedder (everything;
// pure runtime accessors and machine builtins alike become Host methods).
StatusOr<CppExtraction> ExtractCpp(const ast::Module& module);

}  // namespace icarus::extract

#endif  // ICARUS_EXTRACT_CPP_BACKEND_H_

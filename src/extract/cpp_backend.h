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
// target op to `host.emit(<Lang>Op::k<Op>, operands...)`. For every
// interpreted language the header also carries one thunk per op, which
// unpacks baked int64 operands and calls interp_<Lang>_<Op>, and a table of
// those thunks indexed by op; generators get the same treatment
// (`kGenerators`). Interpreter callbacks return where control goes next:
// kFallThrough, the id of the label they jump to, or kStubReturn.
//
// The mini-JS VM is the embedder: the build runs this backend over the
// embedded platform (src/extract/extract_main.cc) and src/vm/ic.cc binds the
// result to its Runtime, so the VM attaches and runs exactly this code.
#ifndef ICARUS_EXTRACT_CPP_BACKEND_H_
#define ICARUS_EXTRACT_CPP_BACKEND_H_

#include <string>

#include "src/platform/platform.h"
#include "src/support/status.h"

namespace icarus::extract {

struct CppExtraction {
  std::string header;            // Self-contained generated header.
  std::string binding_skeleton;  // `class SkeletonHost final` with stub members.
};

// Extracts the loaded platform. The header records the platform's
// Fingerprint() as `icarus_extracted::kPlatformFingerprint`.
StatusOr<CppExtraction> ExtractCpp(const platform::Platform& platform);

}  // namespace icarus::extract

#endif  // ICARUS_EXTRACT_CPP_BACKEND_H_

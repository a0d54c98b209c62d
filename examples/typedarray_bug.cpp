// The paper's running example, end to end: Mozilla bug 1685925 (§2).
//
// The buggy TypedArray.length generator reuses a guard helper that, in
// megamorphic mode, emits only GuardHasGetterSetter — which an object like
//   const tricky = Object.create(Uint8Array.prototype);
// passes despite having a plain-object layout, turning the stub's raw length
// load into an out-of-bounds read. This example:
//   1. runs symbolic meta-execution on the buggy generator and prints the
//      counterexample,
//   2. dumps the control-flow automaton (Figure 6) as GraphViz DOT,
//   3. verifies the fixed generator,
//   4. emits the Boogie meta-stub the paper would hand to Corral.

#include <cstdio>

#include "src/boogie/boogie_dce.h"
#include "src/boogie/boogie_lower.h"
#include "src/boogie/boogie_printer.h"
#include "src/cfa/cfa.h"
#include "src/verifier/verifier.h"

int main() {
  auto loaded = icarus::platform::Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }
  auto platform = loaded.take();
  icarus::verifier::Verifier verifier(platform.get());

  std::printf("== Bug 1685925: TypedArray.length OOB read ==\n\n");
  auto buggy = verifier.Verify("bug1685925_buggy");
  if (!buggy.ok()) {
    std::fprintf(stderr, "%s\n", buggy.status().message().c_str());
    return 1;
  }
  std::printf("%s\n", buggy.value().Render().c_str());

  // The buggy meta-stub's control-flow automaton: printed here, and the
  // Boogie encoding below is built over it.
  auto stub = platform->MakeMetaStub("bug1685925_buggy");
  icarus::cfa::CfaBuilder builder(&platform->module(), &platform->externs());
  auto automaton = builder.Build(stub.value());
  if (!automaton.ok()) {
    std::fprintf(stderr, "%s\n", automaton.status().message().c_str());
    return 1;
  }
  std::printf("--- control-flow automaton (Figure 6), GraphViz DOT ---\n%s\n",
              automaton.value().ToDot().c_str());

  auto fixed = verifier.Verify("bug1685925_fixed");
  if (!fixed.ok()) {
    std::fprintf(stderr, "%s\n", fixed.status().message().c_str());
    return 1;
  }
  std::printf("%s\n", fixed.value().Render().c_str());

  // Emit the Boogie encoding of the buggy meta-stub, sliced to this
  // generator with the standalone DCE pass.
  icarus::boogie::LowerOptions lower_options;
  lower_options.host_externs = platform->externs().HostBoundNames();
  auto program = icarus::boogie::LowerToBoogie(platform->module(), stub.value(),
                                               automaton.value(), lower_options);
  icarus::boogie::DceStats dce = icarus::boogie::DeadCodeElim(program.value().get());
  std::string text = icarus::boogie::PrintProgram(*program.value());
  std::printf("--- Boogie meta-stub (sliced; %d dead declarations removed; %zu chars) ---\n",
              dce.TotalRemoved(), text.size());
  // Print the entrypoint and interpret procedure headers as a taste.
  size_t pos = text.find("procedure {:entrypoint}");
  if (pos != std::string::npos) {
    std::printf("%s\n", text.substr(pos, 400).c_str());
  }
  return buggy.value().verified || !fixed.value().verified ? 1 : 0;
}

// Mini-JS VM demo: the verified generators, extracted to C++, attach real
// inline caches, and the 1685925 exploit is demonstrated both ways —
//   - with the BUGGY megamorphic stub, the `tricky` object passes the
//     getter/setter guard and reaches the length load; the extracted MASM
//     semantics check getFixedSlot's bounds contract first, so the VM stops
//     with a contract violation instead of reading out of bounds;
//   - with the FIXED stub, the shape guard rejects `tricky` and the engine
//     falls back to the safe slow path.

#include <cstdio>

#include "src/vm/interp.h"

using namespace icarus::vm;

int main() {
  auto loaded = icarus::platform::Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }
  auto platform = loaded.take();
  IcCompiler compiler(platform.get());
  StubEngine engine(compiler.masm());

  Runtime rt;
  uint32_t typed_array = rt.NewTypedArray(1024);
  uint32_t tricky = rt.NewFakeTypedArray();  // Object.create(Uint8Array.prototype)
  JsValue ta_value = JsValue::Object(typed_array);
  JsValue tricky_value = JsValue::Object(tricky);

  std::printf("== Attaching TypedArray.length IC stubs (generation input: a real "
              "TypedArray of length 1024) ==\n\n");

  auto attach = [&](const char* generator, int64_t mode) {
    auto stub = compiler.TryAttach(
        &rt, generator,
        {{ConcreteArg::Kind::kBoxedValue, ta_value, 0},
         {ConcreteArg::Kind::kOperand, ta_value, 0},
         {ConcreteArg::Kind::kRaw, JsValue(), static_cast<int64_t>(rt.length_atom())},
         {ConcreteArg::Kind::kRaw, JsValue(), mode}});
    ICARUS_CHECK(stub.ok() && stub.value().has_value());
    std::printf("attached %s: %d input, run by the stub runner compiled for its code\n",
                generator, stub.value()->num_inputs);
    return *stub.value();
  };

  CompiledStub buggy = attach("bug1685925_buggy", 1);  // Megamorphic mode.
  CompiledStub fixed = attach("bug1685925_fixed", 1);

  auto run = [&](const char* label, const CompiledStub& stub, JsValue input) {
    JsValue result;
    try {
      if (engine.Run(&rt, stub, &input, 1, &result) == StubOutcome::kReturn) {
        std::printf("%-42s -> returned %s\n", label, result.ToString().c_str());
      } else {
        std::printf("%-42s -> bailed to the slow path (guard failed)\n", label);
      }
    } catch (const icarus::InternalError& e) {
      std::printf("%-42s -> stopped: %s\n", label, e.what());
    }
  };

  std::printf("\n== Running the stubs ==\n");
  run("buggy stub, real TypedArray", buggy, ta_value);
  run("fixed stub, real TypedArray", fixed, ta_value);
  std::printf("\nNow the attack: tricky = Object.create(Uint8Array.prototype)\n");
  run("buggy stub, tricky object (EXPLOIT)", buggy, tricky_value);
  run("fixed stub, tricky object", fixed, tricky_value);

  std::printf(
      "\nThe buggy stub's guards let the tricky object through to a fixed-slot\n"
      "load past its (empty) slots. The VM runs the extracted code with its\n"
      "contracts live, so the read never happens; an engine running it with\n"
      "contracts compiled out would hand the attacker an out-of-bounds length.\n"
      "Icarus rejects this stub generator statically — run\n"
      "examples/typedarray_bug for the verification side of the story.\n");
  return 0;
}

// Mini-JS VM tests: value encoding, runtime semantics, IC attachment and
// stub runs through the extracted verified code, the stub table, live
// contracts, the refusal of a stub no verified path emitted, IC sites tied
// to their program's code, and the differential conformance sweep
// (every IC strategy must agree with the slow path — the analogue of §4.5's
// jstests/jit-tests run).
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "src/extract/cpp_backend.h"
#include "src/machine/machine_state.h"
#include "src/support/rng.h"
#include "src/support/str_util.h"
#include "src/vm/interp.h"
#include "src/vm/workloads.h"

namespace icarus::vm {
namespace {

// --- NaN boxing ---

TEST(JsValueTest, RoundTrips) {
  EXPECT_EQ(JsValue::Int32(42).AsInt32(), 42);
  EXPECT_EQ(JsValue::Int32(-1).AsInt32(), -1);
  EXPECT_EQ(JsValue::Int32(INT32_MIN).AsInt32(), INT32_MIN);
  EXPECT_TRUE(JsValue::Boolean(true).AsBoolean());
  EXPECT_DOUBLE_EQ(JsValue::Double(3.25).AsDouble(), 3.25);
  EXPECT_DOUBLE_EQ(JsValue::Double(-1e300).AsDouble(), -1e300);
  EXPECT_EQ(JsValue::Object(12345).AsObjectIndex(), 12345u);
  EXPECT_EQ(JsValue::String(7).AsStringAtom(), 7u);
  EXPECT_EQ(JsValue::Private(4096).AsPrivate(), 4096u);
  EXPECT_TRUE(JsValue::Undefined().IsUndefined());
  EXPECT_TRUE(JsValue::Null().IsNull());
  EXPECT_TRUE(JsValue::MagicHole().IsMagic());
}

TEST(JsValueTest, TypeTagsMatchPlatformEnum) {
  // The prelude's JSValueType order must match JsType (the binding layer
  // converts by integer value; ic.cc also static_asserts it).
  EXPECT_EQ(static_cast<int>(JsValue::Double(1.0).type()), 0);
  EXPECT_EQ(static_cast<int>(JsValue::Int32(1).type()), 1);
  EXPECT_EQ(static_cast<int>(JsValue::Boolean(true).type()), 2);
  EXPECT_EQ(static_cast<int>(JsValue::Undefined().type()), 3);
  EXPECT_EQ(static_cast<int>(JsValue::Null().type()), 4);
  EXPECT_EQ(static_cast<int>(JsValue::MagicHole().type()), 5);
  EXPECT_EQ(static_cast<int>(JsValue::String(0).type()), 6);
  EXPECT_EQ(static_cast<int>(JsValue::Symbol(0).type()), 7);
  EXPECT_EQ(static_cast<int>(JsValue::Object(0).type()), 10);
}

TEST(JsValueTest, DoublesNeverCollideWithTags) {
  for (double d : {0.0, -0.0, 1.5, -1.5, 1e308, -1e308, 4e-320}) {
    EXPECT_TRUE(JsValue::Double(d).IsDouble()) << d;
  }
  // NaNs canonicalize but stay doubles.
  EXPECT_TRUE(JsValue::Double(std::nan("")).IsDouble());
}

// --- Runtime heap ---

TEST(RuntimeTest, ShapesAreInterned) {
  Runtime rt;
  PropKey x = rt.Intern("x");
  const Shape* s1 = rt.MakeShape(JsClass::kPlainObject, 1, {{x, {true, 0}}});
  const Shape* s2 = rt.MakeShape(JsClass::kPlainObject, 1, {{x, {true, 0}}});
  const Shape* s3 = rt.MakeShape(JsClass::kPlainObject, 2, {{x, {true, 0}}});
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1, s3);
}

TEST(RuntimeTest, TypedArrayLayout) {
  Runtime rt;
  uint32_t ta = rt.NewTypedArray(777);
  const JsObject& obj = rt.Object(ta);
  EXPECT_EQ(obj.clasp(), JsClass::kTypedArray);
  EXPECT_GE(obj.shape->num_fixed_slots, 4);
  EXPECT_EQ(obj.fixed_slots[3].AsPrivate(), 777u);
  EXPECT_EQ(rt.GetProperty(ta, rt.length_atom()).AsInt32(), 777);
}

TEST(RuntimeTest, FakeTypedArrayHasTypedArrayGetterButPlainLayout) {
  Runtime rt;
  uint32_t tricky = rt.NewFakeTypedArray();
  const JsObject& obj = rt.Object(tricky);
  EXPECT_EQ(obj.clasp(), JsClass::kPlainObject);
  EXPECT_EQ(obj.shape->num_fixed_slots, 0);
  EXPECT_EQ(obj.shape->getter_setters.at(rt.length_atom()), rt.typed_array_length_gs());
}

TEST(RuntimeTest, ElementsAndHoles) {
  Runtime rt;
  uint32_t arr = rt.NewArray({JsValue::Int32(1), JsValue::MagicHole(), JsValue::Int32(3)});
  rt.Object(arr).sparse_elements[100] = JsValue::Int32(42);
  EXPECT_EQ(rt.GetElement(arr, JsValue::Int32(0)).AsInt32(), 1);
  EXPECT_TRUE(rt.GetElement(arr, JsValue::Int32(1)).IsUndefined());  // Hole.
  EXPECT_EQ(rt.GetElement(arr, JsValue::Int32(100)).AsInt32(), 42);  // Sparse.
  EXPECT_TRUE(rt.GetElement(arr, JsValue::Int32(50)).IsUndefined());
}

// --- IC attachment + stub engine ---

StubOutcome RunStub(const StubEngine& engine, Runtime* rt, const CompiledStub& stub,
                    std::initializer_list<JsValue> operands, JsValue* result) {
  std::vector<JsValue> ops(operands);
  return engine.Run(rt, stub, ops.data(), static_cast<int>(ops.size()), result);
}

class VmIcTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto loaded = platform::Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
    compiler_ = new IcCompiler(platform_);
  }
  static void TearDownTestSuite() {
    delete compiler_;
    delete platform_;
    compiler_ = nullptr;
    platform_ = nullptr;
  }
  void SetUp() override { ASSERT_NE(compiler_, nullptr); }

  static platform::Platform* platform_;
  static IcCompiler* compiler_;
};

platform::Platform* VmIcTest::platform_ = nullptr;
IcCompiler* VmIcTest::compiler_ = nullptr;

TEST_F(VmIcTest, AttachAndRunInt32Add) {
  Runtime rt;
  JsValue lhs = JsValue::Int32(20);
  JsValue rhs = JsValue::Int32(22);
  auto stub = compiler_->TryAttach(
      &rt, "tryAttachInt32Add",
      {{ConcreteArg::Kind::kBoxedValue, lhs, 0},
       {ConcreteArg::Kind::kOperand, lhs, 0},
       {ConcreteArg::Kind::kBoxedValue, rhs, 0},
       {ConcreteArg::Kind::kOperand, rhs, 0}});
  ASSERT_TRUE(stub.ok()) << stub.status().message();
  ASSERT_TRUE(stub.value().has_value());

  StubEngine engine(compiler_->masm());
  JsValue result;
  // Hit.
  EXPECT_EQ(RunStub(engine, &rt, *stub.value(), {lhs, rhs}, &result), StubOutcome::kReturn);
  EXPECT_EQ(result.AsInt32(), 42);
  // Different int32 inputs still hit (the stub is polymorphic over values).
  EXPECT_EQ(RunStub(engine, &rt, *stub.value(), {JsValue::Int32(-5), JsValue::Int32(3)}, &result),
            StubOutcome::kReturn);
  EXPECT_EQ(result.AsInt32(), -2);
  // Overflow bails.
  EXPECT_EQ(RunStub(engine, &rt, *stub.value(),
                       {JsValue::Int32(INT32_MAX), JsValue::Int32(1)}, &result),
            StubOutcome::kBail);
  // Wrong type bails at the guard.
  EXPECT_EQ(RunStub(engine, &rt, *stub.value(), {JsValue::Double(1.5), JsValue::Int32(1)},
                       &result),
            StubOutcome::kBail);
}

TEST_F(VmIcTest, GeneratorDeclinesWrongTypes) {
  Runtime rt;
  JsValue lhs = JsValue::Double(1.5);
  JsValue rhs = JsValue::Int32(1);
  auto stub = compiler_->TryAttach(
      &rt, "tryAttachInt32Add",
      {{ConcreteArg::Kind::kBoxedValue, lhs, 0},
       {ConcreteArg::Kind::kOperand, lhs, 0},
       {ConcreteArg::Kind::kBoxedValue, rhs, 0},
       {ConcreteArg::Kind::kOperand, rhs, 0}});
  ASSERT_TRUE(stub.ok()) << stub.status().message();
  EXPECT_FALSE(stub.value().has_value());  // NoAction.
}

TEST_F(VmIcTest, TypedArrayLengthStubGuardsShape) {
  Runtime rt;
  uint32_t ta = rt.NewTypedArray(2048);
  JsValue value = JsValue::Object(ta);
  auto stub = compiler_->TryAttach(
      &rt, "bug1685925_fixed",
      {{ConcreteArg::Kind::kBoxedValue, value, 0},
       {ConcreteArg::Kind::kOperand, value, 0},
       {ConcreteArg::Kind::kRaw, JsValue(), static_cast<int64_t>(rt.length_atom())},
       {ConcreteArg::Kind::kRaw, JsValue(), 0}});
  ASSERT_TRUE(stub.ok()) << stub.status().message();
  ASSERT_TRUE(stub.value().has_value());

  StubEngine engine(compiler_->masm());
  JsValue result;
  EXPECT_EQ(RunStub(engine, &rt, *stub.value(), {value}, &result), StubOutcome::kReturn);
  EXPECT_EQ(result.AsInt32(), 2048);
  // The fixed stub's shape guard rejects the `tricky` object.
  JsValue tricky = JsValue::Object(rt.NewFakeTypedArray());
  EXPECT_EQ(RunStub(engine, &rt, *stub.value(), {tricky}, &result), StubOutcome::kBail);
}

TEST_F(VmIcTest, BuggyTypedArrayStubViolatesFixedSlotContractOnTricky) {
  // The *buggy* megamorphic stub attaches with only a getter/setter guard, so
  // the `tricky` object passes it and reaches the length load — the exploit
  // of §2.2. The extracted MASM semantics check getFixedSlot's bounds
  // contract before the raw read, so the VM throws instead of reading past
  // the fake object's (empty) fixed slots. The fixed stub's shape guard
  // rejects `tricky` and bails.
  Runtime rt;
  uint32_t ta = rt.NewTypedArray(2048);
  JsValue value = JsValue::Object(ta);
  auto attach = [&](const char* generator) {
    auto stub = compiler_->TryAttach(
        &rt, generator,
        {{ConcreteArg::Kind::kBoxedValue, value, 0},
         {ConcreteArg::Kind::kOperand, value, 0},
         {ConcreteArg::Kind::kRaw, JsValue(), static_cast<int64_t>(rt.length_atom())},
         {ConcreteArg::Kind::kRaw, JsValue(), 1 /* ICMode::Megamorphic */}});
    EXPECT_TRUE(stub.ok()) << stub.status().message();
    EXPECT_TRUE(stub.ok() && stub.value().has_value()) << generator;
    return stub.ok() && stub.value().has_value() ? *stub.value() : CompiledStub();
  };
  CompiledStub buggy = attach("bug1685925_buggy");
  CompiledStub fixed = attach("bug1685925_fixed");

  StubEngine engine(compiler_->masm());
  JsValue result;
  EXPECT_EQ(RunStub(engine, &rt, buggy, {value}, &result), StubOutcome::kReturn);
  EXPECT_EQ(result.AsInt32(), 2048);

  JsValue tricky = JsValue::Object(rt.NewFakeTypedArray());
  try {
    RunStub(engine, &rt, buggy, {tricky}, &result);
    ADD_FAILURE() << "the buggy stub ran on tricky without a contract violation";
  } catch (const InternalError& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("NativeObject_getFixedSlot"), std::string::npos) << message;
    EXPECT_NE(message.find("Shape_numFixedSlots"), std::string::npos) << message;
  }
  EXPECT_EQ(RunStub(engine, &rt, fixed, {tricky}, &result), StubOutcome::kBail);
}

TEST_F(VmIcTest, ArgumentsObjectSiteAttachesArgumentsStub) {
  // tryAttachDenseElement accepts an arguments object (it is native) but its
  // stub's initialized-length check fails on every trip: the elements live
  // out of line. The site must not attach that stub again; the next
  // candidate, tryAttachArgumentsObjectArg, serves the later trips, and it
  // goes in front of the dense stub, so that one never runs again.
  Runtime rt;
  uint32_t args = rt.NewArgumentsObject({JsValue::Int32(10), JsValue::Int32(20)});
  ProgramBuilder b("args[1]");
  b.Const(JsValue::Object(args)).Const(JsValue::Int32(1)).GetElem().Return();
  BytecodeProgram program = b.Build();
  Interpreter icarus(&rt, compiler_, IcStrategy::kIcarus);
  constexpr int kTrips = 50;
  for (int trip = 0; trip < kTrips; ++trip) {
    EXPECT_EQ(icarus.Run(program).AsInt32(), 20) << "trip " << trip;
  }
  const InterpStats& stats = icarus.stats();
  EXPECT_EQ(stats.stubs_attached, 2);  // The dense stub once, then the arguments stub.
  EXPECT_EQ(stats.ic_misses, 2);
  EXPECT_EQ(stats.ic_hits, kTrips - 2);
  EXPECT_EQ(stats.ic_bails, 1);  // The dense stub, on the second trip only.
}

TEST_F(VmIcTest, RefusesAnInstructionListNoPathEmitted) {
  // Every attached path of every generator is at least three instructions
  // long, so no runner was compiled for this list: the VM must not run it.
  auto op = [&](const std::string& name) {
    return compiler_->masm()->FindOp(name)->index;
  };
  MasmInstr store{op("StoreUndefinedResult"), 1, {machine::kOutputReg}};
  MasmInstr ret{op("Return"), 0, {}};
  try {
    compiler_->Compile("tryAttachInt32Add", {store, ret}, {0, 1});
    ADD_FAILURE() << "an instruction list no verified path emitted was accepted";
  } catch (const InternalError& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("tryAttachInt32Add"), std::string::npos) << message;
    EXPECT_NE(message.find("StoreUndefinedResult(7) ; Return()"), std::string::npos) << message;
  }
}

TEST_F(VmIcTest, StubsWithTheSameCodeShareOneTableEntry) {
  // The fixed-slot stub guards the receiver's shape, a MASM operand: two
  // receivers of one shape give the same code on the same registers, so both
  // attaches return one table entry; a receiver of another shape gives
  // other code and another entry.
  Runtime rt;
  PropKey x = rt.Intern("x");
  PropKey y = rt.Intern("y");
  const Shape* shape = rt.MakeShape(JsClass::kPlainObject, 1, {{x, {true, 0}}});
  const Shape* other = rt.MakeShape(JsClass::kPlainObject, 2, {{y, {true, 0}}, {x, {true, 1}}});
  uint32_t a = rt.NewPlainObject(shape);
  uint32_t b = rt.NewPlainObject(shape);
  uint32_t c = rt.NewPlainObject(other);
  rt.Object(a).fixed_slots[0] = JsValue::Int32(1);
  rt.Object(b).fixed_slots[0] = JsValue::Int32(2);
  rt.Object(c).fixed_slots[1] = JsValue::Int32(3);
  auto attach = [&](IcCompiler* compiler, uint32_t object) {
    JsValue receiver = JsValue::Object(object);
    auto stub = compiler->TryAttach(&rt, "tryAttachNativeGetPropFixedSlot",
                                    {{ConcreteArg::Kind::kBoxedValue, receiver, 0},
                                     {ConcreteArg::Kind::kOperand, receiver, 0},
                                     {ConcreteArg::Kind::kRaw, JsValue(), x}});
    EXPECT_TRUE(stub.ok() && stub.value().has_value()) << object;
    return stub.ok() && stub.value().has_value() ? *stub.value() : CompiledStub();
  };
  CompiledStub on_a = attach(compiler_, a);
  CompiledStub on_b = attach(compiler_, b);
  CompiledStub on_c = attach(compiler_, c);
  ASSERT_NE(on_a.runner, nullptr);
  EXPECT_TRUE(on_a.SameCode(on_b));
  EXPECT_EQ(on_a.operands, on_b.operands);  // One table entry.
  EXPECT_FALSE(on_a.SameCode(on_c));
  EXPECT_NE(on_a.operands, on_c.operands);
  // Another IcCompiler's table holds another entry for the same code.
  IcCompiler second(platform_);
  CompiledStub elsewhere = attach(&second, a);
  EXPECT_FALSE(on_a.SameCode(elsewhere));

  StubEngine engine(compiler_->masm());
  JsValue result;
  EXPECT_EQ(RunStub(engine, &rt, on_a, {JsValue::Object(b)}, &result), StubOutcome::kReturn);
  EXPECT_EQ(result.AsInt32(), 2);
  EXPECT_EQ(RunStub(engine, &rt, on_c, {JsValue::Object(c)}, &result), StubOutcome::kReturn);
  EXPECT_EQ(result.AsInt32(), 3);
  EXPECT_EQ(RunStub(engine, &rt, on_a, {JsValue::Object(c)}, &result), StubOutcome::kBail);

  // Int32 addition reads its values at run time: any two int32s give the
  // same code.
  auto add = [&](JsValue lhs, JsValue rhs) {
    auto stub = compiler_->TryAttach(&rt, "tryAttachInt32Add",
                                     {{ConcreteArg::Kind::kBoxedValue, lhs, 0},
                                      {ConcreteArg::Kind::kOperand, lhs, 0},
                                      {ConcreteArg::Kind::kBoxedValue, rhs, 0},
                                      {ConcreteArg::Kind::kOperand, rhs, 0}});
    EXPECT_TRUE(stub.ok() && stub.value().has_value());
    return stub.ok() && stub.value().has_value() ? *stub.value() : CompiledStub();
  };
  EXPECT_TRUE(add(JsValue::Int32(1), JsValue::Int32(2))
                  .SameCode(add(JsValue::Int32(-7), JsValue::Int32(40))));
}

TEST_F(VmIcTest, RefusesARunnersOpListOnInputRegistersNoPathUsed) {
  // Build a runner's own instruction list from the extraction's runner keys
  // (its fixed operands as fixed, the rest 0). On the runner's input
  // registers it binds; on registers no runner of that op list has, the
  // same list is refused: the lookup compares the whole key.
  auto runners = extract::EnumerateStubRunners(*platform_);
  ASSERT_TRUE(runners.ok()) << runners.status().message();
  const extract::StubRunner* chosen = nullptr;
  for (const extract::StubRunner& runner : runners.value()) {
    if (runner.key.input_regs.size() == 2) {
      chosen = &runner;
      break;
    }
  }
  ASSERT_NE(chosen, nullptr);
  const extract::StubRunnerKey& key = chosen->key;
  std::vector<MasmInstr> code;
  size_t operand = 0;
  for (const ast::OpDecl* op : key.ops) {
    MasmInstr instr;
    instr.op = op->index;
    instr.num_args = static_cast<int>(op->params.size());
    for (int i = 0; i < instr.num_args; ++i) {
      instr.args[i] = key.operands[operand++].value_or(0);
    }
    code.push_back(instr);
  }
  const std::string& generator = chosen->generators.front();
  EXPECT_NE(compiler_->Compile(generator, code, key.input_regs).runner, nullptr);

  std::vector<int> swapped = {key.input_regs[1], key.input_regs[0]};
  for (const extract::StubRunner& runner : runners.value()) {
    ASSERT_FALSE(runner.key.ops == key.ops && runner.key.input_regs == swapped)
        << "a runner has this op list on the swapped registers; pick other registers";
  }
  try {
    compiler_->Compile(generator, code, swapped);
    ADD_FAILURE() << "a runner's op list bound on input registers no verified path used";
  } catch (const InternalError& e) {
    std::string message = e.what();
    EXPECT_NE(message.find(StrCat("on input registers [", swapped[0], ", ", swapped[1], "]")),
              std::string::npos)
        << message;
  }
}

TEST_F(VmIcTest, SitesFollowTheCodeNotTheProgramAddress) {
  // One optional slot holds `20 + 22` and then `20 - 22`: the second program
  // lives where the first did, and must not inherit its IC sites.
  Runtime rt;
  for (IcStrategy strategy : {IcStrategy::kNative, IcStrategy::kIcarus}) {
    Interpreter reference(&rt, nullptr, IcStrategy::kNone);
    Interpreter interp(&rt, strategy == IcStrategy::kIcarus ? compiler_ : nullptr, strategy);
    std::optional<BytecodeProgram> slot;
    for (BinKind kind : {BinKind::kAdd, BinKind::kSub}) {
      ProgramBuilder b("20 op 22");
      b.Const(JsValue::Int32(20)).Const(JsValue::Int32(22)).Binary(kind).Return();
      slot.emplace(b.Build());
      for (int trip = 0; trip < 3; ++trip) {
        EXPECT_EQ(interp.Run(*slot).raw(), reference.Run(*slot).raw())
            << "strategy " << static_cast<int>(strategy) << ", BinKind "
            << static_cast<int>(kind) << ", trip " << trip;
      }
    }
  }
}

TEST(IcCompilerTest, RefusesAPlatformTheCodeWasNotExtractedFrom) {
  auto stock = platform::Platform::Load();
  ASSERT_TRUE(stock.ok()) << stock.status().message();
  auto extended = platform::Platform::LoadWithExtra({"fn extraChunkHelper() -> Int32 {\n"
                                                     "  return 7;\n"
                                                     "}\n"});
  ASSERT_TRUE(extended.ok()) << extended.status().message();
  std::string stock_fingerprint = stock.value()->Fingerprint();
  std::string extended_fingerprint = extended.value()->Fingerprint();
  ASSERT_NE(stock_fingerprint, extended_fingerprint);
  try {
    IcCompiler compiler(extended.value().get());
    ADD_FAILURE() << "IcCompiler accepted a platform with an extra chunk";
  } catch (const InternalError& e) {
    std::string message = e.what();
    EXPECT_NE(message.find(stock_fingerprint), std::string::npos) << message;
    EXPECT_NE(message.find(extended_fingerprint), std::string::npos) << message;
  }
}

// --- Differential conformance: all strategies agree on all workloads ---
//
// TryAttach throws on a stub whose instruction list has no runner, so these
// runs (the five Fig. 13 workloads and the randomized sweep) also check that
// every stub they attach was emitted by an explored SME path.

class VmConformanceTest : public VmIcTest, public ::testing::WithParamInterface<int> {};

TEST_P(VmConformanceTest, StrategiesAgree) {
  int index = GetParam();
  auto reference_workloads = BuildWorkloads(2000);
  auto native_workloads = BuildWorkloads(2000);
  auto icarus_workloads = BuildWorkloads(2000);
  Workload& ref_w = reference_workloads[static_cast<size_t>(index)];
  Workload& nat_w = native_workloads[static_cast<size_t>(index)];
  Workload& ica_w = icarus_workloads[static_cast<size_t>(index)];

  Interpreter reference(ref_w.runtime.get(), nullptr, IcStrategy::kNone);
  Interpreter native(nat_w.runtime.get(), nullptr, IcStrategy::kNative);
  Interpreter icarus(ica_w.runtime.get(), compiler_, IcStrategy::kIcarus);

  JsValue expected = reference.Run(ref_w.program);
  JsValue native_result = native.Run(nat_w.program);
  JsValue icarus_result = icarus.Run(ica_w.program);

  EXPECT_EQ(expected.raw(), native_result.raw()) << ref_w.name;
  EXPECT_EQ(expected.raw(), icarus_result.raw()) << ref_w.name;
  // The Icarus configuration actually used its stubs.
  EXPECT_GT(icarus.stats().stubs_attached, 0) << ref_w.name;
  EXPECT_GT(icarus.stats().ic_hits, icarus.stats().ic_misses) << ref_w.name;
}

std::string WorkloadTestName(const ::testing::TestParamInfo<int>& info) {
  const char* names[5] = {"Ares6", "Octane", "SixSpeed", "Sunspider", "WebTooling"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, VmConformanceTest, ::testing::Range(0, 5),
                         WorkloadTestName);

// Randomized differential sweep over single operations (property-based).
TEST_F(VmIcTest, RandomizedOperationConformance) {
  Rng rng(20260704);
  Runtime rt;
  PropKey x = rt.Intern("x");
  const Shape* shape = rt.MakeShape(JsClass::kPlainObject, 1, {{x, {true, 0}}});
  uint32_t plain = rt.NewPlainObject(shape);
  rt.Object(plain).fixed_slots[0] = JsValue::Int32(99);
  uint32_t arr = rt.NewArray({JsValue::Int32(5), JsValue::MagicHole(), JsValue::Int32(7)});
  uint32_t ta = rt.NewTypedArray(321);
  uint32_t args = rt.NewArgumentsObject({JsValue::Int32(1), JsValue::Int32(2)});

  auto random_value = [&]() -> JsValue {
    switch (rng.NextBelow(8)) {
      case 0: return JsValue::Int32(static_cast<int32_t>(rng.NextInRange(-1000, 1000)));
      case 1: return JsValue::Int32(static_cast<int32_t>(rng.NextInRange(INT32_MIN, -1)));
      case 2: return JsValue::Double(rng.NextDouble() * 100 - 50);
      case 3: return JsValue::Boolean(rng.NextBool());
      case 4: return JsValue::Undefined();
      case 5: return JsValue::Null();
      case 6: return JsValue::Object(rng.NextBool() ? plain : (rng.NextBool() ? arr : ta));
      default: return JsValue::Object(args);
    }
  };

  Interpreter reference(&rt, nullptr, IcStrategy::kNone);
  Interpreter icarus(&rt, compiler_, IcStrategy::kIcarus);

  for (int trial = 0; trial < 400; ++trial) {
    JsValue lhs = random_value();
    JsValue rhs = random_value();
    // Build a one-op program per trial kind; reuse IC sites across trials
    // thanks to stable program identity per kind.
    BinKind bin = static_cast<BinKind>(rng.NextBelow(8));
    CmpKind cmp = static_cast<CmpKind>(rng.NextBelow(8));

    EXPECT_EQ(reference.SlowBinary(bin, lhs, rhs).raw(),
              icarus.SlowBinary(bin, lhs, rhs).raw());
    EXPECT_EQ(reference.SlowCompare(cmp, lhs, rhs).raw(),
              icarus.SlowCompare(cmp, lhs, rhs).raw());

    ProgramBuilder b("trial");
    int l0 = b.Local();
    int l1 = b.Local();
    b.Const(lhs).Store(l0).Const(rhs).Store(l1);
    b.Load(l0).Load(l1).Binary(bin);
    b.Load(l0).Load(l1).Compare(cmp);
    b.Binary(BinKind::kBitXor);  // Mix both results (bool coerces via ToInt32).
    b.Return();
    BytecodeProgram program = b.Build();
    Interpreter fresh_ref(&rt, nullptr, IcStrategy::kNone);
    Interpreter fresh_ica(&rt, compiler_, IcStrategy::kIcarus);
    JsValue a = fresh_ref.Run(program);
    JsValue c = fresh_ica.Run(program);
    EXPECT_EQ(a.raw(), c.raw()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace icarus::vm

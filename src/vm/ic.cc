// The binding layer of §3.4: the extracted platform (the build writes
// icarus_extracted.h from the embedded DSL) instantiated over two hosts
// that bridge its externs to the VM's Runtime —
//
//   AttachHost: generators and compiler callbacks at attach, over the
//     compile-time half of machine::MachineState; one per IcCompiler,
//     reset per attach;
//   StubHost:   the stub runners' interpreter callbacks at run time, over a
//     register file and value stack in the runner's own frame.
//
// Both are final, non-virtual classes, so every call the extracted
// templates make into them inlines.
#include "src/vm/ic.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <iterator>
#include <utility>

#include "src/machine/machine_state.h"
#include "src/support/str_util.h"
#include "src/vm/stub_engine.h"

namespace icarus::vm {

// The one place a failed contract of the extracted code lands: out of line
// and cold, so the checks cost the hit path a compare and a branch.
[[noreturn, gnu::cold, gnu::noinline]] void ExtractedContractFailed(const char* function,
                                                                    const char* contract) {
  throw InternalError(StrCat("extracted contract violated in ", function, ": ", contract));
}

}  // namespace icarus::vm

#define ICARUS_EXTRACTED_ASSERT(cond)                              \
  do {                                                             \
    if (!(cond)) [[unlikely]] {                                    \
      ::icarus::vm::ExtractedContractFailed(__func__, #cond);      \
    }                                                              \
  } while (0)
#include "icarus_extracted.h"

namespace icarus::vm {

namespace ix = icarus_extracted;

namespace {

// The VM's enums are the platform's, value for value.
static_assert(static_cast<int>(JsType::kDouble) == static_cast<int>(ix::JSValueType::kDouble));
static_assert(static_cast<int>(JsType::kInt32) == static_cast<int>(ix::JSValueType::kInt32));
static_assert(static_cast<int>(JsType::kMagic) == static_cast<int>(ix::JSValueType::kMagic));
static_assert(static_cast<int>(JsType::kObject) == static_cast<int>(ix::JSValueType::kObject));
static_assert(static_cast<int>(JsClass::kPlainObject) ==
              static_cast<int>(ix::ClassKind::kPlainObject));
static_assert(static_cast<int>(JsClass::kOther) == static_cast<int>(ix::ClassKind::kOther));
// Attach encodes the failure label the way the runner keys do.
static_assert(kBailTarget == ix::kFailureTarget);
// Jump targets, the bail target and the two control results never collide.
static_assert(ix::kFallThrough < 0 && ix::kStubReturn < 0 && kBailTarget < 0 &&
              ix::kFallThrough != kBailTarget && ix::kStubReturn != kBailTarget &&
              ix::kFallThrough != ix::kStubReturn);

// Poison value returned by raw accessors on out-of-bounds reads. In the real
// engine such a read returns adjacent memory; here it is a deterministic
// marker instead of actual UB.
uint64_t ReadOrPoison(const std::vector<JsValue>& values, int64_t index) {
  if (index < 0 || index >= static_cast<int64_t>(values.size())) {
    return JsValue::Private(0xBADBEEF).raw();
  }
  return values[static_cast<size_t>(index)].raw();
}

// The hashes that key the runner and stub lookups: a word at a time,
// finished by splitmix64's mixer so that the stub table's buckets spread.
constexpr uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

uint64_t HashStep(uint64_t h, uint64_t word) {
  return (h ^ word) * 0x100000001b3ULL + kHashSeed;
}

uint64_t HashFinish(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

// The runner key hashes the op count, the ops, the input register count
// and the registers; the stub key goes on with every operand.
uint64_t HashRegs(uint64_t h, std::span<const int> regs) {
  h = HashStep(h, regs.size());
  for (int reg : regs) {
    h = HashStep(h, static_cast<uint64_t>(reg));
  }
  return h;
}

}  // namespace

// The pure runtime externs, shared by both phases. Object handles are heap
// indices (the NaN-box payload) and Shape handles are the interned Shape*.
class RuntimeHost {
 public:
  explicit RuntimeHost(Runtime* rt) : rt_(rt) {}

  // --- Boxing / unboxing ---
  ix::JSValueType Value_typeTag(ix::Value v) const {
    return static_cast<ix::JSValueType>(JsValue::FromRaw(v).type());
  }
  ix::Object Value_toObjectRaw(ix::Value v) const { return JsValue::FromRaw(v).AsObjectIndex(); }
  ix::Value Value_fromObjectRaw(ix::Object o) const {
    return JsValue::Object(static_cast<uint32_t>(o)).raw();
  }
  int64_t Value_toInt32Raw(ix::Value v) const { return JsValue::FromRaw(v).AsInt32(); }
  ix::Value Value_fromInt32Raw(int64_t i) const {
    return JsValue::Int32(static_cast<int32_t>(i)).raw();
  }
  bool Value_toBooleanRaw(ix::Value v) const { return JsValue::FromRaw(v).AsBoolean(); }
  ix::Value Value_fromBooleanRaw(bool b) const { return JsValue::Boolean(b).raw(); }
  ix::String Value_toStringRaw(ix::Value v) const { return JsValue::FromRaw(v).AsStringAtom(); }
  ix::Value Value_fromStringRaw(ix::String s) const {
    return JsValue::String(static_cast<uint32_t>(s)).raw();
  }
  ix::Symbol Value_toSymbolRaw(ix::Value v) const { return JsValue::FromRaw(v).AsSymbolIndex(); }
  ix::Value Value_fromSymbolRaw(ix::Symbol s) const {
    return JsValue::Symbol(static_cast<uint32_t>(s)).raw();
  }
  double Value_toDoubleRaw(ix::Value v) const { return JsValue::FromRaw(v).AsDouble(); }
  ix::Value Value_fromDoubleRaw(double d) const { return std::bit_cast<uint64_t>(d); }
  ix::Value Value_undefinedValue() const { return JsValue::Undefined().raw(); }
  int64_t Value_privateToIntPtr(ix::Value v) const {
    return static_cast<int64_t>(JsValue::FromRaw(v).AsPrivate());
  }

  // --- Objects, shapes, slots ---
  ix::Shape Object_shapeOf(ix::Object o) const {
    return reinterpret_cast<uintptr_t>(Obj(o).shape);
  }
  ix::ClassKind Shape_classOf(ix::Shape s) const {
    return static_cast<ix::ClassKind>(ShapeOf(s)->clasp);
  }
  int64_t Shape_numFixedSlots(ix::Shape s) const { return ShapeOf(s)->num_fixed_slots; }
  int64_t Shape_numDynamicSlots(ix::Shape s) const { return ShapeOf(s)->num_dynamic_slots; }
  ix::Value NativeObject_getFixedSlotRaw(ix::Object o, int64_t slot) const {
    return ReadOrPoison(Obj(o).fixed_slots, slot);
  }
  ix::Value NativeObject_getDynamicSlotRaw(ix::Object o, int64_t slot) const {
    return ReadOrPoison(Obj(o).dynamic_slots, slot);
  }
  int64_t NativeObject_denseInitializedLengthRaw(ix::Object o) const {
    return static_cast<int64_t>(Obj(o).elements.size());
  }
  ix::Value NativeObject_getDenseElementRaw(ix::Object o, int64_t index) const {
    return ReadOrPoison(Obj(o).elements, index);
  }
  int64_t ArrayObject_lengthRaw(ix::Object o) const { return Obj(o).array_length; }
  int64_t ArgumentsObject_numArgsRaw(ix::Object o) const {
    return static_cast<int64_t>(Obj(o).args.size());
  }
  ix::Value ArgumentsObject_getArgRaw(ix::Object o, int64_t index) const {
    return ReadOrPoison(Obj(o).args, index);
  }
  ix::GetterSetter NativeObject_lookupGetterSetter(ix::Object o, ix::PropertyKey key) const {
    const std::map<PropKey, uint64_t>& table = Obj(o).shape->getter_setters;
    auto it = table.find(static_cast<PropKey>(key));
    return it == table.end() ? 0 : it->second;
  }
  bool Shape_hasFixedSlotProperty(ix::Shape s, ix::PropertyKey key) const {
    const PropertyInfo* info = ShapeOf(s)->Find(static_cast<PropKey>(key));
    return info != nullptr && info->is_fixed;
  }
  int64_t Shape_lookupFixedSlot(ix::Shape s, ix::PropertyKey key) const {
    ICARUS_REQUIRE(Shape_hasFixedSlotProperty(s, key));
    return ShapeOf(s)->Find(static_cast<PropKey>(key))->slot;
  }
  bool Shape_hasDynamicSlotProperty(ix::Shape s, ix::PropertyKey key) const {
    const PropertyInfo* info = ShapeOf(s)->Find(static_cast<PropKey>(key));
    return info != nullptr && !info->is_fixed;
  }
  int64_t Shape_lookupDynamicSlot(ix::Shape s, ix::PropertyKey key) const {
    ICARUS_REQUIRE(Shape_hasDynamicSlotProperty(s, key));
    return ShapeOf(s)->Find(static_cast<PropKey>(key))->slot;
  }

  // --- Strings, symbols, doubles, int32 ---
  bool String_equalsRaw(ix::String a, ix::String b) const { return a == b; }  // Interned.
  int64_t String_lengthRaw(ix::String s) const {
    return static_cast<int64_t>(rt_->AtomText(static_cast<PropKey>(s)).size());
  }
  bool Symbol_isPrivateNameRaw(ix::Symbol s) const {
    return rt_->SymbolIsPrivate(static_cast<uint32_t>(s));
  }
  bool Double_isInt32Exact(double d) const {
    // Negative zero must not convert (JS -0 is not an int32 index).
    return d == std::trunc(d) && d >= -2147483648.0 && d <= 2147483647.0 &&
           !(d == 0.0 && std::signbit(d));
  }
  int64_t Double_toInt32Exact(double d) const { return static_cast<int64_t>(d); }
  int64_t Double_truncateRaw(double d) const {
    // Huge and non-finite doubles give 0 (JS ToInt32 works modulo 2^32).
    return std::isfinite(d) && std::abs(d) < 9.2e18 ? static_cast<int64_t>(std::trunc(d)) : 0;
  }
  int64_t Int32_signedTruncate(int64_t v) const {
    return static_cast<int32_t>(static_cast<uint32_t>(static_cast<uint64_t>(v)));
  }

  // --- Runtime call targets ---
  ix::Value VM_getSparseElementHelper(ix::Object o, int64_t index) const {
    const std::map<int64_t, JsValue>& sparse = Obj(o).sparse_elements;
    auto it = sparse.find(index);
    return (it == sparse.end() ? JsValue::Undefined() : it->second).raw();
  }
  ix::Value VM_proxyGetByValue(ix::Object o, ix::Value key) const {
    return JsValue::Undefined().raw();
  }

 protected:
  void set_runtime(Runtime* rt) { rt_ = rt; }

 private:
  const JsObject& Obj(ix::Object o) const { return rt_->Object(static_cast<uint32_t>(o)); }
  static const Shape* ShapeOf(ix::Shape s) { return reinterpret_cast<const Shape*>(s); }

  Runtime* rt_;
};

// Run time: the MASM register file and value stack of one stub execution.
// Registers hold boxed values and raw payloads alike, as on hardware.
class StubHost final : public RuntimeHost {
 public:
  using RuntimeHost::RuntimeHost;

  uint64_t regs[machine::kNumRegs] = {};

  ix::Value MASM_getValue(ix::ValueReg r) const { return regs[r]; }
  void MASM_setValue(ix::ValueReg r, ix::Value v) { regs[r] = v; }
  int64_t MASM_getInt32(ix::Reg r) const { return static_cast<int64_t>(regs[r]); }
  void MASM_setInt32(ix::Reg r, int64_t v) {
    // The machine model's Int32 store check (exec/externs.cc).
    ICARUS_EXTRACTED_ASSERT(v >= INT32_MIN && v <= INT32_MAX);
    regs[r] = static_cast<uint64_t>(v);
  }
  ix::Object MASM_getObject(ix::Reg r) const { return regs[r]; }
  void MASM_setObject(ix::Reg r, ix::Object o) { regs[r] = o; }
  ix::String MASM_getString(ix::Reg r) const { return regs[r]; }
  void MASM_setString(ix::Reg r, ix::String s) { regs[r] = s; }
  ix::Symbol MASM_getSymbol(ix::Reg r) const { return regs[r]; }
  void MASM_setSymbol(ix::Reg r, ix::Symbol s) { regs[r] = s; }
  int64_t MASM_getIntPtr(ix::Reg r) const { return static_cast<int64_t>(regs[r]); }
  void MASM_setIntPtr(ix::Reg r, int64_t v) { regs[r] = static_cast<uint64_t>(v); }
  bool MASM_getBool(ix::Reg r) const { return regs[r] != 0; }
  void MASM_setBool(ix::Reg r, bool b) { regs[r] = b ? 1 : 0; }
  double MASM_getDouble(ix::Reg r) const { return std::bit_cast<double>(regs[r]); }
  void MASM_setDouble(ix::Reg r, double d) { regs[r] = std::bit_cast<uint64_t>(d); }

  void MASM_pushReg(ix::Reg r) { Push(regs[r]); }
  void MASM_popReg(ix::Reg r) { regs[r] = Pop(); }
  void MASM_pushValueReg(ix::ValueReg r) { Push(regs[r]); }
  void MASM_popValueReg(ix::ValueReg r) { regs[r] = Pop(); }
  void MASM_dropStack(int64_t count) {
    for (int64_t i = 0; i < count; ++i) {
      Pop();
    }
  }
  int64_t MASM_stackDepth() const { return depth_; }
  // Runtime calls are C++ functions that never touch this register file, so
  // live registers need no saving and nothing is clobbered.
  void MASM_saveLiveRegs() {}
  void MASM_restoreLiveRegs() {}
  void MASM_clobberVolatileRegs() {}

 private:
  static constexpr int kStackSlots = 16;

  void Push(uint64_t v) {
    ICARUS_REQUIRE_MSG(depth_ < kStackSlots, "stub value-stack overflow");
    stack_[depth_++] = v;
  }
  uint64_t Pop() {
    ICARUS_REQUIRE_MSG(depth_ > 0, "stub value-stack underflow");
    return stack_[--depth_];
  }

  // Left uninitialized: zeroing it costs every hit a `rep stos`, and Pop
  // reads only slots below depth_, which Push wrote.
  uint64_t stack_[kStackSlots];
  int depth_ = 0;
};

namespace {

// The entry point of runner I. Its input registers are part of its key, so
// they load as literals, and the runner inlines here with the host, whose
// register file the compiler can then keep in machine registers.
template <size_t I>
[[gnu::flatten]] bool RunStub(Runtime* runtime, const JsValue* inputs, const int64_t* operands,
                              JsValue* result) {
  constexpr ix::StubRunnerEntry<StubHost> kEntry = ix::kStubRunners<StubHost>[I];
  StubHost host(runtime);
  for (int k = 0; k < kEntry.num_inputs; ++k) {
    host.regs[kEntry.input_regs[k]] = inputs[k].raw();
  }
  if (!kEntry.run(host, operands)) {
    return false;
  }
  *result = JsValue::FromRaw(host.regs[machine::kOutputReg]);
  return true;
}

template <size_t... I>
constexpr std::array<StubRunner, sizeof...(I)> StubEntryPoints(std::index_sequence<I...>) {
  return {&RunStub<I>...};
}

// Indexed like the extracted kStubRunners.
constexpr auto kStubEntryPoints =
    StubEntryPoints(std::make_index_sequence<std::size(ix::kStubRunners<StubHost>)>());

}  // namespace

// Attach time: the operand table and register allocator of
// machine::MachineState, labels, and the MASM the compiler callbacks emit.
// Its IcCompiler keeps one and resets it per attach, so after the first
// attaches its buffers have the room an attach needs.
class AttachHost final : public RuntimeHost {
 public:
  AttachHost() : RuntimeHost(nullptr) {}

  void Reset(Runtime* runtime) {
    set_runtime(runtime);
    machine_.Reset();
    labels_.clear();
    emitted_.clear();
  }

  machine::MachineState& machine() { return machine_; }

  ix::ValueReg CacheIRCompiler_useValueId(ix::ValueId id) { return Use(id); }
  ix::Reg CacheIRCompiler_useObjectId(ix::ObjectId id) { return Use(id); }
  ix::Reg CacheIRCompiler_useInt32Id(ix::Int32Id id) { return Use(id); }
  ix::Reg CacheIRCompiler_useStringId(ix::StringId id) { return Use(id); }
  ix::Reg CacheIRCompiler_useSymbolId(ix::SymbolId id) { return Use(id); }
  ix::Reg CacheIRCompiler_allocScratchReg() { return Checked(machine_.AllocScratch()); }
  void CacheIRCompiler_releaseReg(ix::Reg reg) {
    Status st = machine_.ReleaseScratch(static_cast<int>(reg));
    ICARUS_REQUIRE_MSG(st.ok(), st.message());
  }
  ix::ValueReg CacheIRCompiler_outputReg() const { return machine::kOutputReg; }
  bool CacheIRCompiler_hasKnownType(ix::ValueId id) const {
    return machine_.KnownType(static_cast<int>(id)) >= 0;
  }
  ix::JSValueType CacheIRCompiler_knownType(ix::ValueId id) const {
    int t = machine_.KnownType(static_cast<int>(id));
    ICARUS_REQUIRE_MSG(t >= 0, "knownType queried for an operand with no static type");
    return static_cast<ix::JSValueType>(t);
  }
  void CacheIRCompiler_setKnownType(ix::ValueId id, ix::JSValueType t) {
    Status st = machine_.SetKnownType(static_cast<int>(id), static_cast<int>(t));
    ICARUS_REQUIRE_MSG(st.ok(), st.message());
  }
  ix::Int32Id CacheIR_newInt32Id() { return static_cast<ix::Int32Id>(machine_.NewOperandId()); }
  ix::Reg CacheIRCompiler_defineOperandReg(ix::Int32Id id) {
    return Checked(machine_.DefineOperand(static_cast<int>(id)));
  }
  // Operand ids and registers keep their payload across reinterpretation.
  ix::ObjectId OperandId_toObjectId(ix::ValueId id) const { return id; }
  ix::Int32Id OperandId_toInt32Id(ix::ValueId id) const { return id; }
  ix::StringId OperandId_toStringId(ix::ValueId id) const { return id; }
  ix::SymbolId OperandId_toSymbolId(ix::ValueId id) const { return id; }
  ix::Reg ValueReg_scratchReg(ix::ValueReg reg) const { return reg; }
  ix::Reg MASM_ecxReg() const { return machine::kEcxReg; }

  ix::Label newLabel() { return NewLabel(kUnbound); }
  ix::Label failureLabel() { return NewLabel(kBailTarget); }
  void bindLabel(ix::Label label) {
    int64_t& target = labels_.at(static_cast<size_t>(label.id));
    ICARUS_REQUIRE_MSG(target == kUnbound, "label bound twice, or a failure label rebound");
    target = static_cast<int64_t>(emitted_.size());
  }

  template <class... Operands>
  void emit(ix::MASMOp op, Operands... operands) {
    static_assert(sizeof...(Operands) <= MasmInstr::kMaxArgs);
    Emitted instr{op};
    (instr.Add(operands), ...);
    emitted_.push_back(instr);
  }

  // Decodes the emitted MASM into *code with labels resolved. Register
  // operands need no check here: a runner fixes every one, and extraction
  // refuses a register outside the file.
  Status Decode(std::vector<MasmInstr>* code) const {
    for (int64_t target : labels_) {
      if (target == kUnbound) {
        return Status::Error("label left unbound at end of stub generation");
      }
    }
    code->clear();
    for (const Emitted& e : emitted_) {
      MasmInstr out;
      out.op = static_cast<int>(e.op);
      out.num_args = e.num_args;
      for (int i = 0; i < e.num_args; ++i) {
        int64_t v = e.args[i];
        if ((e.label_mask >> i) & 1) {
          v = labels_[static_cast<size_t>(v)];
        }
        out.args[i] = v;
      }
      code->push_back(out);
    }
    return Status::Ok();
  }

 private:
  static constexpr int64_t kUnbound = -1;

  struct Emitted {
    ix::MASMOp op;
    int num_args = 0;
    int64_t args[MasmInstr::kMaxArgs] = {};
    uint8_t label_mask = 0;

    void Add(ix::Label label) {
      label_mask = static_cast<uint8_t>(label_mask | (1u << num_args));
      args[num_args++] = label.id;
    }
    void Add(double d) { args[num_args++] = std::bit_cast<int64_t>(d); }
    template <class T>
    void Add(T v) {
      args[num_args++] = static_cast<int64_t>(v);
    }
  };

  ix::Reg Use(uint64_t id) { return Checked(machine_.UseOperand(static_cast<int>(id))); }
  static uint64_t Checked(const StatusOr<int>& reg) {
    ICARUS_REQUIRE_MSG(reg.ok(), reg.status().message());
    return static_cast<uint64_t>(reg.value());
  }
  ix::Label NewLabel(int64_t target) {
    labels_.push_back(target);
    return ix::Label{static_cast<int64_t>(labels_.size()) - 1};
  }

  machine::MachineState machine_;
  std::vector<int64_t> labels_;  // Label id → instruction index, kBailTarget or kUnbound.
  std::vector<Emitted> emitted_;
};

namespace {

constexpr int MaxGeneratorParams() {
  int most = 0;
  for (const ix::GeneratorEntry<AttachHost>& generator : ix::kGenerators<AttachHost>) {
    most = std::max(most, generator.num_params);
  }
  return most;
}

// The most arguments an attach passes.
constexpr int kMaxGeneratorParams = MaxGeneratorParams();

}  // namespace

IcCompiler::IcCompiler(const platform::Platform* platform)
    : masm_(platform->module().FindLanguage("MASM")), host_(std::make_unique<AttachHost>()) {
  const std::string fingerprint = platform->Fingerprint();
  ICARUS_REQUIRE_MSG(fingerprint == ix::kPlatformFingerprint,
                     StrCat("platform fingerprint ", fingerprint, " differs from ",
                            ix::kPlatformFingerprint,
                            ", the platform the VM's IC code was extracted from"));
  for (size_t i = 0; i < std::size(ix::kGenerators<AttachHost>); ++i) {
    generators_.emplace_back(ix::kGenerators<AttachHost>[i].name, static_cast<int>(i));
  }
  std::sort(generators_.begin(), generators_.end());
  const auto& table = ix::kStubRunners<StubHost>;
  for (size_t i = 0; i < std::size(table); ++i) {
    const ix::StubRunnerEntry<StubHost>& entry = table[i];
    uint64_t h = HashStep(kHashSeed, static_cast<uint64_t>(entry.num_ops));
    for (int k = 0; k < entry.num_ops; ++k) {
      h = HashStep(h, static_cast<uint64_t>(entry.ops[k]));
    }
    h = HashRegs(h, std::span(entry.input_regs, static_cast<size_t>(entry.num_inputs)));
    runners_.emplace_back(HashFinish(h), i);
  }
  std::sort(runners_.begin(), runners_.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return a.first < b.first;
    }
    if (table[a.second].num_fixed != table[b.second].num_fixed) {
      return table[a.second].num_fixed > table[b.second].num_fixed;
    }
    return a.second < b.second;
  });
}

IcCompiler::~IcCompiler() = default;

int IcCompiler::FindGenerator(std::string_view name) const {
  auto it = std::lower_bound(generators_.begin(), generators_.end(), name,
                             [](const auto& entry, std::string_view n) { return entry.first < n; });
  return it != generators_.end() && it->first == name ? it->second : -1;
}

CompiledStub IcCompiler::StubFor(const StubEntry& entry) const {
  return CompiledStub{kStubEntryPoints[entry.runner], entry.operands.data(),
                      ix::kStubRunners<StubHost>[entry.runner].num_inputs, this};
}

CompiledStub IcCompiler::Bind(int generator, std::span<const MasmInstr> code,
                              std::span<const int> input_regs) {
  uint64_t h = HashStep(kHashSeed, code.size());
  operands_.clear();
  for (const MasmInstr& instr : code) {
    ICARUS_REQUIRE_MSG(instr.op >= 0 && static_cast<size_t>(instr.op) < masm_->ops.size() &&
                           static_cast<size_t>(instr.num_args) ==
                               masm_->ops[static_cast<size_t>(instr.op)]->params.size(),
                       "malformed MASM instruction");
    h = HashStep(h, static_cast<uint64_t>(instr.op));
    operands_.insert(operands_.end(), instr.args, instr.args + instr.num_args);
  }
  h = HashRegs(h, input_regs);
  const uint64_t runner_hash = HashFinish(h);
  for (int64_t operand : operands_) {
    h = HashStep(h, static_cast<uint64_t>(operand));
  }
  const uint64_t stub_hash = HashFinish(h);

  // The runner key (ops and input registers) of runner `index` is this
  // code's.
  auto same_runner_key = [&](size_t index) {
    const ix::StubRunnerEntry<StubHost>& entry = ix::kStubRunners<StubHost>[index];
    return static_cast<size_t>(entry.num_ops) == code.size() &&
           static_cast<size_t>(entry.num_inputs) == input_regs.size() &&
           std::equal(code.begin(), code.end(), entry.ops,
                      [](const MasmInstr& instr, ix::MASMOp op) {
                        return instr.op == static_cast<int>(op);
                      }) &&
           std::equal(input_regs.begin(), input_regs.end(), entry.input_regs);
  };

  // Code the table holds: its entry, nothing bound.
  auto [first, last] = stub_index_.equal_range(stub_hash);
  for (auto it = first; it != last; ++it) {
    const StubEntry& entry = stubs_[it->second];
    if (entry.operands == operands_ && same_runner_key(entry.runner)) {
      return StubFor(entry);
    }
  }

  // New code: the first runner whose whole key it matches.
  auto runner = std::lower_bound(
      runners_.begin(), runners_.end(), runner_hash,
      [](const std::pair<uint64_t, size_t>& r, uint64_t hash) { return r.first < hash; });
  for (; runner != runners_.end() && runner->first == runner_hash; ++runner) {
    const ix::StubRunnerEntry<StubHost>& entry = ix::kStubRunners<StubHost>[runner->second];
    if (same_runner_key(runner->second) &&
        std::all_of(entry.fixed, entry.fixed + entry.num_fixed, [&](const ix::FixedOperand& f) {
          return operands_[static_cast<size_t>(f.index)] == f.value;
        })) {
      stubs_.push_back(StubEntry{runner->second, operands_});
      stub_index_.emplace(stub_hash, stubs_.size() - 1);
      return StubFor(stubs_.back());
    }
  }

  std::vector<std::string> listing;
  for (const MasmInstr& instr : code) {
    std::vector<std::string> args;
    for (int i = 0; i < instr.num_args; ++i) {
      args.push_back(StrCat(instr.args[i]));
    }
    listing.push_back(
        StrCat(masm_->ops[static_cast<size_t>(instr.op)]->name, "(", Join(args, ", "), ")"));
  }
  std::vector<std::string> regs;
  for (int reg : input_regs) {
    regs.push_back(StrCat(reg));
  }
  throw InternalError(StrCat("refusing ", ix::kGenerators<AttachHost>[generator].name,
                             "'s stub [", Join(listing, " ; "), "] on input registers [",
                             Join(regs, ", "),
                             "]: no attached path of the verifier's symbolic meta-execution "
                             "emitted this instruction list"));
}

CompiledStub IcCompiler::Compile(const std::string& generator, const std::vector<MasmInstr>& code,
                                 const std::vector<int>& operand_regs) {
  int index = FindGenerator(generator);
  ICARUS_REQUIRE_MSG(index >= 0, StrCat("no generator ", generator));
  return Bind(index, code, operand_regs);
}

StatusOr<std::optional<CompiledStub>> IcCompiler::TryAttach(Runtime* runtime,
                                                            const std::string& generator_name,
                                                            const std::vector<ConcreteArg>& args) {
  int index = FindGenerator(generator_name);
  if (index < 0) {
    return Status::Error(StrCat("no generator ", generator_name));
  }
  return TryAttach(runtime, index, args);
}

StatusOr<std::optional<CompiledStub>> IcCompiler::TryAttach(Runtime* runtime, int generator,
                                                            std::span<const ConcreteArg> args) {
  ++attach_calls_;
  if (generator < 0 || static_cast<size_t>(generator) >= std::size(ix::kGenerators<AttachHost>)) {
    return Status::Error(StrCat("no generator at index ", generator));
  }
  const ix::GeneratorEntry<AttachHost>& entry = ix::kGenerators<AttachHost>[generator];
  if (static_cast<int>(args.size()) != entry.num_params) {
    return Status::Error(StrCat("argument count mismatch for ", entry.name));
  }

  AttachHost& host = *host_;
  host.Reset(runtime);
  int input_regs[kMaxGeneratorParams];
  int num_inputs = 0;
  int64_t raw_args[kMaxGeneratorParams];
  for (size_t i = 0; i < args.size(); ++i) {
    const ConcreteArg& arg = args[i];
    switch (arg.kind) {
      case ConcreteArg::Kind::kBoxedValue:
        raw_args[i] = static_cast<int64_t>(arg.boxed.raw());
        break;
      case ConcreteArg::Kind::kOperand: {
        int id = host.machine().NewOperandId();
        StatusOr<int> reg = host.machine().DefineOperand(id);
        if (!reg.ok()) {
          return reg.status();
        }
        input_regs[num_inputs++] = reg.value();
        raw_args[i] = id;
        break;
      }
      case ConcreteArg::Kind::kRaw:
        raw_args[i] = arg.raw;
        break;
    }
  }
  if (entry.run(host, raw_args) != ix::AttachDecision::kAttach) {
    return std::optional<CompiledStub>();
  }
  ICARUS_RETURN_IF_ERROR(host.Decode(&code_));
  return std::optional<CompiledStub>(
      Bind(generator, code_, std::span(input_regs, static_cast<size_t>(num_inputs))));
}

StubEngine::StubEngine(const ast::LanguageDecl* masm) {
  bool same = masm != nullptr && masm->ops.size() == std::size(ix::kMASMOpNames);
  for (size_t i = 0; same && i < masm->ops.size(); ++i) {
    same = masm->ops[i]->name == ix::kMASMOpNames[i];
  }
  ICARUS_REQUIRE_MSG(same, "MASM language does not match the extracted header");
}

StubOutcome StubEngine::Run(Runtime* runtime, const CompiledStub& stub, const JsValue* operands,
                            int num_operands, JsValue* result) const {
  ICARUS_REQUIRE_MSG(num_operands == stub.num_inputs,
                     "operand count does not match the compiled stub");
  return stub.runner(runtime, operands, stub.operands, result) ? StubOutcome::kReturn
                                                              : StubOutcome::kBail;
}

}  // namespace icarus::vm

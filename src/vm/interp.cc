#include "src/vm/interp.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>

#include "src/support/str_util.h"

namespace icarus::vm {

namespace {

constexpr int kMaxStubsPerSite = 6;
constexpr int kMaxFailedAttaches = 4;

bool ToBoolean(const JsValue& v) {
  switch (v.type()) {
    case JsType::kBoolean:
      return v.AsBoolean();
    case JsType::kInt32:
      return v.AsInt32() != 0;
    case JsType::kDouble:
      return v.AsDouble() != 0.0 && !std::isnan(v.AsDouble());
    case JsType::kUndefined:
    case JsType::kNull:
      return false;
    default:
      return true;
  }
}

// JS ToInt32 for the bitwise slow paths.
int32_t ToInt32(const JsValue& v) {
  if (v.IsInt32()) {
    return v.AsInt32();
  }
  if (v.IsDouble()) {
    double d = v.AsDouble();
    if (!std::isfinite(d)) {
      return 0;
    }
    double t = std::trunc(d);
    // Modulo 2^32 with wraparound.
    double wrapped = std::fmod(t, 4294967296.0);
    if (wrapped < 0) {
      wrapped += 4294967296.0;
    }
    uint32_t u = static_cast<uint32_t>(wrapped);
    return static_cast<int32_t>(u);
  }
  if (v.IsBoolean()) {
    return v.AsBoolean() ? 1 : 0;
  }
  return 0;
}

int64_t Wrap32(int64_t v) {
  return static_cast<int32_t>(static_cast<uint32_t>(static_cast<uint64_t>(v)));
}

JsValue NumberResult(double d) {
  // Canonicalize integral doubles in int32 range back to int32 (what JS
  // engines do for arithmetic results), preserving -0 as a double.
  if (d == std::trunc(d) && d >= -2147483648.0 && d <= 2147483647.0 &&
      !(d == 0.0 && std::signbit(d))) {
    return JsValue::Int32(static_cast<int32_t>(d));
  }
  return JsValue::Double(d);
}

}  // namespace

Interpreter::Interpreter(Runtime* runtime, IcCompiler* ic_compiler, IcStrategy strategy)
    : runtime_(runtime), ic_compiler_(ic_compiler), strategy_(strategy) {
  if (strategy_ != IcStrategy::kIcarus) {
    return;
  }
  ICARUS_CHECK_MSG(ic_compiler_ != nullptr, "kIcarus needs an IcCompiler");
  engine_ = std::make_unique<StubEngine>(ic_compiler_->masm());
  auto candidate = [&](const char* generator, int num_args) {
    int index = ic_compiler_->FindGenerator(generator);
    ICARUS_CHECK_MSG(index >= 0, generator);
    return Candidate{index, num_args};
  };
  Candidates& c = candidates_;
  c.get_prop = {candidate("tryAttachNativeGetPropFixedSlot", 3),
                candidate("tryAttachNativeGetPropDynamicSlot", 3)};
  // The TypedArray length generator is the fixed 1685925 code.
  c.get_length = {candidate("tryAttachObjectLength", 2), candidate("bug1685925_fixed", 4)};
  c.get_length.insert(c.get_length.end(), c.get_prop.begin(), c.get_prop.end());
  c.get_elem = {candidate("tryAttachDenseElement", 4),
                candidate("tryAttachArgumentsObjectArg", 4)};
  c.binary[static_cast<int>(BinKind::kAdd)] = {candidate("tryAttachInt32Add", 4)};
  c.binary[static_cast<int>(BinKind::kSub)] = {candidate("tryAttachInt32Sub", 4)};
  c.binary[static_cast<int>(BinKind::kMul)] = {candidate("tryAttachInt32Mul", 4)};
  c.binary[static_cast<int>(BinKind::kDiv)] = {candidate("tryAttachInt32Div", 4)};
  c.binary[static_cast<int>(BinKind::kMod)] = {candidate("tryAttachInt32Mod", 4)};
  // Bitwise: one generator, its Int32BitOpKind the fifth argument.
  for (BinKind kind : {BinKind::kBitAnd, BinKind::kBitOr, BinKind::kBitXor}) {
    c.binary[static_cast<int>(kind)] = {candidate("tryAttachInt32Bitwise", 5)};
  }
  c.compare = {candidate("tryAttachCompareInt32", 5),
               candidate("tryAttachCompareNullUndefined", 5),
               candidate("tryAttachCompareStrictDifferentTypes", 5)};
  c.neg = {candidate("tryAttachInt32Negation", 2)};
  c.bit_not = {candidate("tryAttachInt32Not", 2)};
}

// ---------------------------------------------------------------------------
// Slow paths (the oracle semantics)
// ---------------------------------------------------------------------------

JsValue Interpreter::SlowGetProp(JsValue receiver, PropKey atom) {
  if (!receiver.IsObject()) {
    return JsValue::Undefined();
  }
  return runtime_->GetProperty(receiver.AsObjectIndex(), atom);
}

JsValue Interpreter::SlowGetElem(JsValue receiver, JsValue key) {
  if (!receiver.IsObject()) {
    return JsValue::Undefined();
  }
  // ToPropertyKey: integral doubles become int32 indices.
  if (key.IsDouble()) {
    double d = key.AsDouble();
    if (d == std::trunc(d) && d >= -2147483648.0 && d <= 2147483647.0 &&
        !(d == 0.0 && std::signbit(d))) {
      key = JsValue::Int32(static_cast<int32_t>(d));
    }
  }
  return runtime_->GetElement(receiver.AsObjectIndex(), key);
}

JsValue Interpreter::SlowBinary(BinKind kind, JsValue lhs, JsValue rhs) {
  switch (kind) {
    case BinKind::kBitAnd:
      return JsValue::Int32(ToInt32(lhs) & ToInt32(rhs));
    case BinKind::kBitOr:
      return JsValue::Int32(ToInt32(lhs) | ToInt32(rhs));
    case BinKind::kBitXor:
      return JsValue::Int32(ToInt32(lhs) ^ ToInt32(rhs));
    default:
      break;
  }
  if (!lhs.IsNumber() || !rhs.IsNumber()) {
    return JsValue::Double(std::nan(""));
  }
  double a = lhs.ToNumberValue();
  double b = rhs.ToNumberValue();
  switch (kind) {
    case BinKind::kAdd:
      return NumberResult(a + b);
    case BinKind::kSub:
      return NumberResult(a - b);
    case BinKind::kMul:
      return NumberResult(a * b);
    case BinKind::kDiv:
      return NumberResult(a / b);
    case BinKind::kMod:
      return NumberResult(std::fmod(a, b));
    default:
      break;
  }
  ICARUS_UNREACHABLE("binary kind");
}

JsValue Interpreter::SlowCompare(CmpKind kind, JsValue lhs, JsValue rhs) {
  // Null/undefined loose equality.
  if (lhs.IsNullOrUndefined() || rhs.IsNullOrUndefined()) {
    bool both = lhs.IsNullOrUndefined() && rhs.IsNullOrUndefined();
    switch (kind) {
      case CmpKind::kEq:
        return JsValue::Boolean(both);
      case CmpKind::kNe:
        return JsValue::Boolean(!both);
      case CmpKind::kStrictEq:
        return JsValue::Boolean(lhs.type() == rhs.type());
      case CmpKind::kStrictNe:
        return JsValue::Boolean(lhs.type() != rhs.type());
      default:
        return JsValue::Boolean(false);  // Relational with nullish: false here.
    }
  }
  bool numbers = lhs.IsNumber() && rhs.IsNumber();
  if (numbers) {
    double a = lhs.ToNumberValue();
    double b = rhs.ToNumberValue();
    switch (kind) {
      case CmpKind::kEq:
      case CmpKind::kStrictEq:
        return JsValue::Boolean(a == b);
      case CmpKind::kNe:
      case CmpKind::kStrictNe:
        return JsValue::Boolean(a != b);
      case CmpKind::kLt:
        return JsValue::Boolean(a < b);
      case CmpKind::kLe:
        return JsValue::Boolean(a <= b);
      case CmpKind::kGt:
        return JsValue::Boolean(a > b);
      case CmpKind::kGe:
        return JsValue::Boolean(a >= b);
    }
  }
  // Non-numeric: strict (in)equality on identity; loose follows strict here
  // (no coercions among our value set beyond the nullish case above).
  bool same = lhs == rhs;
  switch (kind) {
    case CmpKind::kEq:
    case CmpKind::kStrictEq:
      return JsValue::Boolean(same);
    case CmpKind::kNe:
    case CmpKind::kStrictNe:
      return JsValue::Boolean(!same);
    default:
      return JsValue::Boolean(false);
  }
}

JsValue Interpreter::SlowNeg(JsValue v) {
  if (!v.IsNumber()) {
    return JsValue::Double(std::nan(""));
  }
  return NumberResult(-v.ToNumberValue());
}

JsValue Interpreter::SlowBitNot(JsValue v) { return JsValue::Int32(~ToInt32(v)); }

// ---------------------------------------------------------------------------
// IC stub execution
// ---------------------------------------------------------------------------

bool Interpreter::TryIcarusStubs(IcSite* site, const JsValue* operands, int num_operands,
                                 JsValue* out) {
  for (const CompiledStub& stub : site->icarus_stubs) {
    if (stub.num_inputs != num_operands) {
      continue;
    }
    StubOutcome outcome = engine_->Run(runtime_, stub, operands, num_operands, out);
    if (outcome == StubOutcome::kReturn) {
      ++stats_.ic_hits;
      return true;
    }
    ++stats_.ic_bails;
  }
  return false;
}

bool Interpreter::TryNativeStubs(IcSite* site, const JsValue* operands, int num_operands,
                                 JsValue* out) {
  // A guard that fails `continue`s, and the loop's increment counts the bail.
  for (size_t i = 0; i < site->native_stubs.size(); ++i, ++stats_.ic_bails) {
    const NativeStub& stub = site->native_stubs[i];
    switch (stub.kind) {
      case NativeStub::Kind::kGetPropFixedSlot:
      case NativeStub::Kind::kGetPropDynamicSlot: {
        if (!operands[0].IsObject()) {
          continue;
        }
        const JsObject& obj = runtime_->Object(operands[0].AsObjectIndex());
        if (obj.shape->id != stub.shape_id) {
          continue;
        }
        *out = stub.kind == NativeStub::Kind::kGetPropFixedSlot
                   ? obj.fixed_slots[static_cast<size_t>(stub.slot)]
                   : obj.dynamic_slots[static_cast<size_t>(stub.slot)];
        ++stats_.ic_hits;
        return true;
      }
      case NativeStub::Kind::kGetPropArrayLength: {
        if (!operands[0].IsObject()) {
          continue;
        }
        const JsObject& obj = runtime_->Object(operands[0].AsObjectIndex());
        if (obj.clasp() != JsClass::kArrayObject || obj.array_length > INT32_MAX) {
          continue;
        }
        *out = JsValue::Int32(static_cast<int32_t>(obj.array_length));
        ++stats_.ic_hits;
        return true;
      }
      case NativeStub::Kind::kGetPropTypedArrayLength: {
        if (!operands[0].IsObject()) {
          continue;
        }
        const JsObject& obj = runtime_->Object(operands[0].AsObjectIndex());
        if (obj.shape->id != stub.shape_id) {
          continue;
        }
        *out = JsValue::Int32(static_cast<int32_t>(obj.fixed_slots[3].AsPrivate()));
        ++stats_.ic_hits;
        return true;
      }
      case NativeStub::Kind::kGetElemDense: {
        if (!operands[0].IsObject() || !operands[1].IsInt32()) {
          continue;
        }
        const JsObject& obj = runtime_->Object(operands[0].AsObjectIndex());
        if (obj.shape->id != stub.shape_id) {
          continue;
        }
        int64_t index = operands[1].AsInt32();
        if (index < 0 || index >= static_cast<int64_t>(obj.elements.size()) ||
            obj.elements[static_cast<size_t>(index)].IsMagic()) {
          continue;
        }
        *out = obj.elements[static_cast<size_t>(index)];
        ++stats_.ic_hits;
        return true;
      }
      case NativeStub::Kind::kGetElemArgs: {
        if (!operands[0].IsObject() || !operands[1].IsInt32()) {
          continue;
        }
        const JsObject& obj = runtime_->Object(operands[0].AsObjectIndex());
        if (obj.clasp() != JsClass::kArgumentsObject) {
          continue;
        }
        int64_t index = operands[1].AsInt32();
        if (index < 0 || index >= static_cast<int64_t>(obj.args.size()) ||
            obj.args[static_cast<size_t>(index)].IsMagic()) {
          continue;
        }
        *out = obj.args[static_cast<size_t>(index)];
        ++stats_.ic_hits;
        return true;
      }
      case NativeStub::Kind::kBinInt32: {
        if (!operands[0].IsInt32() || !operands[1].IsInt32()) {
          continue;
        }
        int64_t a = operands[0].AsInt32();
        int64_t b = operands[1].AsInt32();
        int64_t r;
        switch (static_cast<BinKind>(stub.op)) {
          case BinKind::kAdd: r = a + b; break;
          case BinKind::kSub: r = a - b; break;
          case BinKind::kMul:
            r = a * b;
            if (r == 0 && (a < 0 || b < 0)) {
              continue;  // -0: bail to the double path.
            }
            break;
          case BinKind::kDiv:
            if (b == 0 || a == INT32_MIN || a == 0) {
              continue;
            }
            r = a / b;
            if (r * b != a) {
              continue;
            }
            break;
          case BinKind::kMod:
            if (b == 0 || a == INT32_MIN) {
              continue;
            }
            r = a % b;
            if (r == 0 && a < 0) {
              continue;
            }
            break;
          case BinKind::kBitAnd: r = Wrap32(a & b); break;
          case BinKind::kBitOr: r = Wrap32(a | b); break;
          case BinKind::kBitXor: r = Wrap32(a ^ b); break;
          default: continue;
        }
        if (r > INT32_MAX || r < INT32_MIN) {
          continue;  // Overflow: bail.
        }
        *out = JsValue::Int32(static_cast<int32_t>(r));
        ++stats_.ic_hits;
        return true;
      }
      case NativeStub::Kind::kCmpInt32: {
        if (!operands[0].IsInt32() || !operands[1].IsInt32()) {
          continue;
        }
        int32_t a = operands[0].AsInt32();
        int32_t b = operands[1].AsInt32();
        bool r;
        switch (static_cast<CmpKind>(stub.op)) {
          case CmpKind::kEq:
          case CmpKind::kStrictEq: r = a == b; break;
          case CmpKind::kNe:
          case CmpKind::kStrictNe: r = a != b; break;
          case CmpKind::kLt: r = a < b; break;
          case CmpKind::kLe: r = a <= b; break;
          case CmpKind::kGt: r = a > b; break;
          case CmpKind::kGe: r = a >= b; break;
          default: continue;
        }
        *out = JsValue::Boolean(r);
        ++stats_.ic_hits;
        return true;
      }
      case NativeStub::Kind::kNegInt32: {
        if (!operands[0].IsInt32()) {
          continue;
        }
        int32_t v = operands[0].AsInt32();
        if (v == 0 || v == INT32_MIN) {
          continue;
        }
        *out = JsValue::Int32(-v);
        ++stats_.ic_hits;
        return true;
      }
      case NativeStub::Kind::kNotInt32: {
        if (!operands[0].IsInt32()) {
          continue;
        }
        *out = JsValue::Int32(~operands[0].AsInt32());
        ++stats_.ic_hits;
        return true;
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// IC stub attachment
// ---------------------------------------------------------------------------

void Interpreter::AttachIcarus(IcSite* site, const BytecodeInstr& instr,
                               const JsValue* operands) {
  using K = ConcreteArg::Kind;
  // Every candidate of an op takes a prefix of the same arguments: each
  // operand boxed and as a stub input, then the op's raw payloads.
  ConcreteArg args[5] = {{K::kBoxedValue, operands[0], 0}, {K::kOperand, operands[0], 0}};
  auto second_operand = [&] {
    args[2] = {K::kBoxedValue, operands[1], 0};
    args[3] = {K::kOperand, operands[1], 0};
  };
  const std::vector<Candidate>* candidates = nullptr;
  switch (instr.op) {
    case Op::kGetProp:
      args[2] = {K::kRaw, JsValue(), instr.a};
      args[3] = {K::kRaw, JsValue(), 0};  // ICMode::Specialized.
      candidates = static_cast<PropKey>(instr.a) == runtime_->length_atom()
                       ? &candidates_.get_length
                       : &candidates_.get_prop;
      break;
    case Op::kGetElem:
      second_operand();
      candidates = &candidates_.get_elem;
      break;
    case Op::kBinary:
      ICARUS_CHECK(instr.a >= 0 && instr.a < static_cast<int>(std::size(candidates_.binary)));
      second_operand();
      // The Int32BitOpKind of a bitwise kind; the arithmetic generators
      // take four arguments and never read it.
      args[4] = {K::kRaw, JsValue(), instr.a - static_cast<int>(BinKind::kBitAnd)};
      candidates = &candidates_.binary[instr.a];
      break;
    case Op::kCompare:
      second_operand();
      args[4] = {K::kRaw, JsValue(), instr.a};
      candidates = &candidates_.compare;
      break;
    case Op::kNeg:
      candidates = &candidates_.neg;
      break;
    case Op::kBitNot:
      candidates = &candidates_.bit_not;
      break;
    default:
      return;
  }

  // A candidate whose stub the site already holds is skipped: that stub just
  // bailed on these operands, and a second copy would bail on every trip
  // too (a dense-element stub on an arguments object, say). The next
  // candidate gets its turn. The new stub goes first, as in SpiderMonkey:
  // the stubs before it just failed on these operands.
  for (const Candidate& candidate : *candidates) {
    StatusOr<std::optional<CompiledStub>> attached = ic_compiler_->TryAttach(
        runtime_, candidate.generator,
        std::span<const ConcreteArg>(args, static_cast<size_t>(candidate.num_args)));
    ICARUS_CHECK_MSG(attached.ok(), attached.status().message().c_str());
    const std::optional<CompiledStub>& stub = attached.value();
    if (!stub.has_value() ||
        std::any_of(site->icarus_stubs.begin(), site->icarus_stubs.end(),
                    [&](const CompiledStub& held) { return held.SameCode(*stub); })) {
      continue;
    }
    site->icarus_stubs.insert(site->icarus_stubs.begin(), *stub);
    ++stats_.stubs_attached;
    return;
  }
  ++site->failed_attaches;
}

void Interpreter::AttachNative(IcSite* site, const BytecodeInstr& instr,
                               const JsValue* operands) {
  // Newest first, like AttachIcarus.
  auto push = [&](NativeStub stub) {
    site->native_stubs.insert(site->native_stubs.begin(), stub);
    ++stats_.stubs_attached;
  };
  switch (instr.op) {
    case Op::kGetProp: {
      if (!operands[0].IsObject()) {
        break;
      }
      const JsObject& obj = runtime_->Object(operands[0].AsObjectIndex());
      PropKey atom = static_cast<PropKey>(instr.a);
      if (atom == runtime_->length_atom() && obj.clasp() == JsClass::kArrayObject) {
        push({NativeStub::Kind::kGetPropArrayLength, 0, 0, 0});
        return;
      }
      if (atom == runtime_->length_atom() && obj.clasp() == JsClass::kTypedArray) {
        push({NativeStub::Kind::kGetPropTypedArrayLength, obj.shape->id, 0, 0});
        return;
      }
      const PropertyInfo* info = obj.shape->Find(atom);
      if (info != nullptr) {
        push({info->is_fixed ? NativeStub::Kind::kGetPropFixedSlot
                             : NativeStub::Kind::kGetPropDynamicSlot,
              obj.shape->id, info->slot, 0});
        return;
      }
      break;
    }
    case Op::kGetElem: {
      if (!operands[0].IsObject() || !operands[1].IsInt32()) {
        break;
      }
      const JsObject& obj = runtime_->Object(operands[0].AsObjectIndex());
      if (obj.clasp() == JsClass::kArgumentsObject) {
        push({NativeStub::Kind::kGetElemArgs, obj.shape->id, 0, 0});
        return;
      }
      if (obj.clasp() != JsClass::kProxy) {
        push({NativeStub::Kind::kGetElemDense, obj.shape->id, 0, 0});
        return;
      }
      break;
    }
    case Op::kBinary:
      if (operands[0].IsInt32() && operands[1].IsInt32()) {
        push({NativeStub::Kind::kBinInt32, 0, 0, instr.a});
        return;
      }
      break;
    case Op::kCompare:
      if (operands[0].IsInt32() && operands[1].IsInt32()) {
        push({NativeStub::Kind::kCmpInt32, 0, 0, instr.a});
        return;
      }
      break;
    case Op::kNeg:
      if (operands[0].IsInt32()) {
        push({NativeStub::Kind::kNegInt32, 0, 0, 0});
        return;
      }
      break;
    case Op::kBitNot:
      if (operands[0].IsInt32()) {
        push({NativeStub::Kind::kNotInt32, 0, 0, 0});
        return;
      }
      break;
    default:
      break;
  }
  ++site->failed_attaches;
}

JsValue Interpreter::ExecIcOp(IcSite* site, const BytecodeInstr& instr,
                              const JsValue* operands, int num_operands) {
  if (site != nullptr) {
    JsValue out;
    bool hit = strategy_ == IcStrategy::kIcarus
                   ? TryIcarusStubs(site, operands, num_operands, &out)
                   : TryNativeStubs(site, operands, num_operands, &out);
    if (hit) {
      return out;
    }
    ++stats_.ic_misses;
  }
  // Slow path.
  JsValue result;
  switch (instr.op) {
    case Op::kGetProp:
      result = SlowGetProp(operands[0], static_cast<PropKey>(instr.a));
      break;
    case Op::kGetElem:
      result = SlowGetElem(operands[0], operands[1]);
      break;
    case Op::kBinary:
      result = SlowBinary(static_cast<BinKind>(instr.a), operands[0], operands[1]);
      break;
    case Op::kCompare:
      result = SlowCompare(static_cast<CmpKind>(instr.a), operands[0], operands[1]);
      break;
    case Op::kNeg:
      result = SlowNeg(operands[0]);
      break;
    case Op::kBitNot:
      result = SlowBitNot(operands[0]);
      break;
    default:
      ICARUS_UNREACHABLE("not an IC op");
  }
  // Attach a stub for next time.
  if (site != nullptr &&
      static_cast<int>(strategy_ == IcStrategy::kIcarus ? site->icarus_stubs.size()
                                                        : site->native_stubs.size()) <
          kMaxStubsPerSite &&
      site->failed_attaches < kMaxFailedAttaches) {
    if (strategy_ == IcStrategy::kIcarus) {
      AttachIcarus(site, instr, operands);
    } else {
      AttachNative(site, instr, operands);
    }
  }
  return result;
}

void Interpreter::ResetIcs() {
  for (auto& [program, entry] : sites_) {
    for (IcSite& site : entry.sites) {
      site.icarus_stubs.clear();
      site.native_stubs.clear();
      site.failed_attaches = 0;
    }
  }
}

JsValue Interpreter::Run(const BytecodeProgram& program) {
  std::vector<JsValue> locals(static_cast<size_t>(program.num_locals));
  std::vector<JsValue> stack;
  stack.reserve(32);
  IcSite* program_sites = nullptr;
  if (strategy_ != IcStrategy::kNone) {
    ProgramSites& entry = sites_[&program];
    if (entry.code != program.code) {
      entry.code = program.code;
      entry.sites.assign(program.code.size(), IcSite());
    }
    program_sites = entry.sites.data();
  }
  int pc = 0;
  const int n = static_cast<int>(program.code.size());
  while (pc < n) {
    ++stats_.steps;
    const BytecodeInstr& instr = program.code[static_cast<size_t>(pc)];
    switch (instr.op) {
      case Op::kLoadConst:
        stack.push_back(JsValue::FromRaw(instr.const_bits));
        break;
      case Op::kLoadLocal:
        stack.push_back(locals[static_cast<size_t>(instr.a)]);
        break;
      case Op::kStoreLocal:
        locals[static_cast<size_t>(instr.a)] = stack.back();
        stack.pop_back();
        break;
      case Op::kGetProp: {
        JsValue operands[1] = {stack.back()};
        stack.pop_back();
        stack.push_back(ExecIcOp(program_sites ? &program_sites[pc] : nullptr, instr,
                                 operands, 1));
        break;
      }
      case Op::kGetElem: {
        JsValue key = stack.back();
        stack.pop_back();
        JsValue operands[2] = {stack.back(), key};
        stack.pop_back();
        stack.push_back(ExecIcOp(program_sites ? &program_sites[pc] : nullptr, instr,
                                 operands, 2));
        break;
      }
      case Op::kBinary:
      case Op::kCompare: {
        JsValue rhs = stack.back();
        stack.pop_back();
        JsValue operands[2] = {stack.back(), rhs};
        stack.pop_back();
        stack.push_back(ExecIcOp(program_sites ? &program_sites[pc] : nullptr, instr,
                                 operands, 2));
        break;
      }
      case Op::kNeg:
      case Op::kBitNot: {
        JsValue operands[1] = {stack.back()};
        stack.pop_back();
        stack.push_back(ExecIcOp(program_sites ? &program_sites[pc] : nullptr, instr,
                                 operands, 1));
        break;
      }
      case Op::kJump:
        pc = instr.a;
        continue;
      case Op::kJumpIfFalse: {
        JsValue cond = stack.back();
        stack.pop_back();
        if (!ToBoolean(cond)) {
          pc = instr.a;
          continue;
        }
        break;
      }
      case Op::kPop:
        stack.pop_back();
        break;
      case Op::kDup:
        stack.push_back(stack.back());
        break;
      case Op::kReturn: {
        JsValue result = stack.back();
        return result;
      }
    }
    ++pc;
  }
  return JsValue::Undefined();
}

}  // namespace icarus::vm

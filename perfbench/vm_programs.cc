#include "vm_programs.h"

#include <memory>
#include <string>
#include <utility>

#include "bench.h"
#include "src/support/str_util.h"

namespace perfbench {

namespace {

using icarus::vm::BinKind;
using icarus::vm::BytecodeInstr;
using icarus::vm::BytecodeProgram;
using icarus::vm::CmpKind;
using icarus::vm::JsClass;
using icarus::vm::JsValue;
using icarus::vm::Op;
using icarus::vm::ProgramBuilder;
using icarus::vm::PropertyInfo;
using icarus::vm::PropKey;
using icarus::vm::Runtime;

// The IC op menu (see vm_programs.h).
enum class Menu {
  kPropFixed, kPropDynamic, kElemDense, kElemArgs, kArrayLength, kTypedArrayLength,
  kAdd, kSub, kMul, kDiv, kMod, kBitAnd, kBitOr, kBitXor, kCompare, kNeg, kNot,
};
constexpr int kMenuSize = 17;
constexpr int kMaxVariants = 8;
constexpr int kElements = 8;            // Elements per array / arguments object.
constexpr int32_t kAccMask = 0x3FFFFFFF;  // Keeps the accumulator an int32.
// Stand-ins for the loop counter and accumulator in site samples: only the
// operand types matter to the stubs' guards.
constexpr int32_t kIterSample = 5;
constexpr int32_t kAccSample = 12345;

class Generator {
 public:
  Generator(Runtime* rt, Rng* rng, std::vector<SiteSample>* samples)
      : rt_(rt), rng_(rng), samples_(samples), x_(rt->Intern("x")) {
    for (int f = 0; f < kMaxVariants; ++f) {
      fillers_.push_back(rt->Intern(icarus::StrCat("f", f)));
    }
    // An object no stub attached at a menu site accepts: its own shape, a
    // class no menu receiver has.
    bail_object_ = JsValue::Object(PlainWith(rt->Intern("bail"), 0, true, 1));
  }

  BytecodeProgram Program(const std::string& name, int iterations,
                          const std::vector<std::pair<Menu, int>>& body) {
    ProgramBuilder b(name);
    i_ = b.Local();
    acc_ = b.Local();
    b.Const(JsValue::Int32(0)).Store(i_);
    b.Const(JsValue::Int32(0)).Store(acc_);
    int loop = b.Here();
    b.Load(i_).Const(JsValue::Int32(iterations));
    Compare(b, CmpKind::kLt, {JsValue::Int32(kIterSample)}, JsValue::Int32(iterations));
    int exit_jump = b.JumpIfFalsePlaceholder();
    for (const auto& [menu, k] : body) {
      Statement(b, menu, k);
    }
    b.Load(i_).Const(JsValue::Int32(1));
    Binary(b, BinKind::kAdd, {JsValue::Int32(kIterSample)}, JsValue::Int32(1));
    b.Store(i_);
    b.JumpTo(loop);
    b.Patch(exit_jump, b.Here());
    b.Load(acc_).Return();
    return b.Build();
  }

 private:
  // --- IC instructions, each recorded as a site sample ---------------------

  // One sample per variant the site sees as its first operand.
  void Record(const BytecodeInstr& instr, int n, const std::vector<JsValue>& firsts,
              JsValue second, JsValue bail_first) {
    for (JsValue first : firsts) {
      SiteSample s;
      s.instr = instr;
      s.num_operands = n;
      s.hit[0] = first;
      s.hit[1] = second;
      s.bail[0] = bail_first;
      s.bail[1] = second;
      samples_->push_back(s);
    }
  }
  void Binary(ProgramBuilder& b, BinKind kind, const std::vector<JsValue>& lhs, JsValue rhs) {
    b.Binary(kind);
    Record({Op::kBinary, static_cast<int32_t>(kind), 0}, 2, lhs, rhs, JsValue::Double(0.5));
  }
  void Compare(ProgramBuilder& b, CmpKind kind, const std::vector<JsValue>& lhs, JsValue rhs) {
    b.Compare(kind);
    Record({Op::kCompare, static_cast<int32_t>(kind), 0}, 2, lhs, rhs, JsValue::Double(0.5));
  }
  void GetProp(ProgramBuilder& b, PropKey atom, const std::vector<JsValue>& receivers) {
    b.GetProp(static_cast<int32_t>(atom));
    Record({Op::kGetProp, static_cast<int32_t>(atom), 0}, 1, receivers, JsValue(), bail_object_);
  }
  void GetElem(ProgramBuilder& b, const std::vector<JsValue>& receivers, JsValue key) {
    b.GetElem();
    Record({Op::kGetElem, 0, 0}, 2, receivers, key, bail_object_);
  }
  void Unary(ProgramBuilder& b, Op op, const std::vector<JsValue>& operands) {
    if (op == Op::kNeg) {
      b.Neg();
    } else {
      b.BitNot();
    }
    Record({op, 0, 0}, 1, operands, JsValue(), JsValue::Double(0.5));
  }

  // acc = (acc + <value on stack>) & kAccMask. The caller pushed acc first.
  void Fold(ProgramBuilder& b) {
    Binary(b, BinKind::kAdd, {JsValue::Int32(kAccSample)}, JsValue::Int32(7));
    b.Const(JsValue::Int32(kAccMask));
    Binary(b, BinKind::kBitAnd, {JsValue::Int32(kAccSample)}, JsValue::Int32(kAccMask));
    b.Store(acc_);
  }

  // Pushes variants[i % k].
  void PushVariant(ProgramBuilder& b, const std::vector<JsValue>& variants) {
    const int k = static_cast<int>(variants.size());
    if (k == 1) {
      b.Const(variants[0]);
      return;
    }
    JsValue holder = JsValue::Object(rt_->NewArray(variants));
    b.Const(holder).Load(i_).Const(JsValue::Int32(k));
    Binary(b, BinKind::kMod, {JsValue::Int32(kIterSample)}, JsValue::Int32(k));
    GetElem(b, {holder}, JsValue::Int32(kIterSample % k));
  }

  // --- Variants ----------------------------------------------------------------

  int32_t Int(int lo, int hi) { return rng_->Range(lo, hi); }

  // A plain object whose shape holds `fillers` filler properties, then `key`
  // (in a fixed slot when `fixed`, else in dynamic slot 0) holding `value`.
  uint32_t PlainWith(PropKey key, int fillers, bool fixed, int32_t value) {
    std::vector<std::pair<PropKey, PropertyInfo>> props;
    for (int f = 0; f < fillers; ++f) {
      props.push_back({fillers_[static_cast<size_t>(f)], {true, f}});
    }
    props.push_back({key, fixed ? PropertyInfo{true, fillers} : PropertyInfo{false, 0}});
    uint32_t obj = rt_->NewPlainObject(
        rt_->MakeShape(JsClass::kPlainObject, fixed ? fillers + 1 : fillers, props));
    auto& o = rt_->Object(obj);
    for (int f = 0; f < fillers; ++f) {
      o.fixed_slots[static_cast<size_t>(f)] = JsValue::Int32(Int(0, 1000));
    }
    (fixed ? o.fixed_slots[static_cast<size_t>(fillers)] : o.dynamic_slots[0]) =
        JsValue::Int32(value);
    return obj;
  }

  std::vector<JsValue> Ints(int n) {
    std::vector<JsValue> out;
    for (int e = 0; e < n; ++e) {
      out.push_back(JsValue::Int32(Int(0, 1000)));
    }
    return out;
  }

  // Objects with property x: shape j has j fillers; the first variant puts
  // x in a fixed slot (kPropFixed) or a dynamic one, odd variants flip it.
  std::vector<JsValue> PropReceivers(bool fixed, int k) {
    std::vector<JsValue> out;
    for (int j = 0; j < k; ++j) {
      out.push_back(JsValue::Object(PlainWith(x_, j, (j % 2 == 0) == fixed, Int(0, 1000))));
    }
    return out;
  }

  // Receivers of `length`: variant 0 is an array or a typed array; later
  // variants cycle through the other class, a plain object with its own
  // `length` property (a distinct shape) and another instance of the class.
  std::vector<JsValue> LengthReceivers(bool typed, int k) {
    auto make = [&](bool as_typed) {
      return as_typed ? rt_->NewTypedArray(Int(1, 4096))
                      : rt_->NewArray(Ints(Int(1, 64)));
    };
    std::vector<JsValue> out = {JsValue::Object(make(typed))};
    for (int j = 1; j < k; ++j) {
      uint32_t obj = j % 3 == 1   ? make(!typed)
                     : j % 3 == 2 ? PlainWith(rt_->length_atom(), j, j % 2 == 0, Int(0, 1000))
                                  : make(typed);
      out.push_back(JsValue::Object(obj));
    }
    return out;
  }

  // GetElem receivers with kElements int elements: variant 0 is a dense
  // array or an arguments object; later variants cycle through the other
  // class, a plain object of a distinct shape carrying elements, and another
  // instance of the class.
  std::vector<JsValue> ElemReceivers(bool args, int k) {
    auto make = [&](bool as_args) {
      return as_args ? rt_->NewArgumentsObject(Ints(kElements)) : rt_->NewArray(Ints(kElements));
    };
    std::vector<JsValue> out = {JsValue::Object(make(args))};
    for (int j = 1; j < k; ++j) {
      uint32_t obj;
      if (j % 3 == 1) {
        obj = make(!args);
      } else if (j % 3 == 2) {
        obj = PlainWith(x_, j, true, Int(0, 1000));
        rt_->Object(obj).elements = Ints(kElements);
      } else {
        obj = make(args);
      }
      out.push_back(JsValue::Object(obj));
    }
    return out;
  }

  // Left operands: variant 0 is an int32 in the op's clean range (no
  // overflow, no -0, exact division); odd variants are doubles.
  std::vector<JsValue> Operands(Menu menu, int k, int32_t rhs) {
    std::vector<JsValue> out;
    for (int j = 0; j < k; ++j) {
      int32_t v;
      switch (menu) {
        case Menu::kMul: case Menu::kNeg: v = Int(1, 1000); break;
        case Menu::kDiv: v = rhs * Int(1, 1000); break;
        case Menu::kMod: v = Int(0, 100000); break;
        case Menu::kBitAnd: case Menu::kBitOr: case Menu::kBitXor: case Menu::kNot:
          v = Int(0, (1 << 20) - 1);
          break;
        default: v = Int(0, 1000); break;
      }
      out.push_back(j % 2 == 1 ? JsValue::Double(v + 0.5) : JsValue::Int32(v));
    }
    return out;
  }

  void Statement(ProgramBuilder& b, Menu menu, int k) {
    switch (menu) {
      case Menu::kPropFixed:
      case Menu::kPropDynamic:
      case Menu::kArrayLength:
      case Menu::kTypedArrayLength: {
        bool is_length = menu == Menu::kArrayLength || menu == Menu::kTypedArrayLength;
        std::vector<JsValue> receivers =
            is_length ? LengthReceivers(menu == Menu::kTypedArrayLength, k)
                      : PropReceivers(menu == Menu::kPropFixed, k);
        b.Load(acc_);
        PushVariant(b, receivers);
        GetProp(b, is_length ? rt_->length_atom() : x_, receivers);
        Fold(b);
        return;
      }
      case Menu::kElemDense:
      case Menu::kElemArgs: {
        std::vector<JsValue> receivers = ElemReceivers(menu == Menu::kElemArgs, k);
        b.Load(acc_);
        PushVariant(b, receivers);
        b.Load(i_).Const(JsValue::Int32(kElements - 1));
        Binary(b, BinKind::kBitAnd, {JsValue::Int32(kIterSample)}, JsValue::Int32(kElements - 1));
        GetElem(b, receivers, JsValue::Int32(kIterSample & (kElements - 1)));
        Fold(b);
        return;
      }
      case Menu::kCompare: {
        static constexpr CmpKind kKinds[] = {CmpKind::kEq, CmpKind::kNe, CmpKind::kLt,
                                             CmpKind::kLe, CmpKind::kGt, CmpKind::kGe,
                                             CmpKind::kStrictEq, CmpKind::kStrictNe};
        CmpKind kind = kKinds[rng_->Below(8)];
        JsValue rhs = JsValue::Int32(Int(0, 1000));
        // Variants cycle int32, double, null, undefined.
        std::vector<JsValue> lhs;
        for (int j = 0; j < k; ++j) {
          int32_t v = Int(0, 1000);
          lhs.push_back(j % 4 == 0   ? JsValue::Int32(v)
                        : j % 4 == 1 ? JsValue::Double(v + 0.5)
                        : j % 4 == 2 ? JsValue::Null()
                                     : JsValue::Undefined());
        }
        PushVariant(b, lhs);
        b.Const(rhs);
        Compare(b, kind, lhs, rhs);
        int skip = b.JumpIfFalsePlaceholder();
        b.Load(acc_).Const(JsValue::Int32(1));
        Binary(b, BinKind::kAdd, {JsValue::Int32(kAccSample)}, JsValue::Int32(1));
        b.Store(acc_);
        b.Patch(skip, b.Here());
        return;
      }
      case Menu::kNeg:
      case Menu::kNot: {
        std::vector<JsValue> operands = Operands(menu, k, 0);
        b.Load(acc_);
        PushVariant(b, operands);
        Unary(b, menu == Menu::kNeg ? Op::kNeg : Op::kBitNot, operands);
        Fold(b);
        return;
      }
      default: {
        static constexpr BinKind kBinary[] = {BinKind::kAdd,    BinKind::kSub,   BinKind::kMul,
                                              BinKind::kDiv,    BinKind::kMod,   BinKind::kBitAnd,
                                              BinKind::kBitOr,  BinKind::kBitXor};
        BinKind kind = kBinary[static_cast<int>(menu) - static_cast<int>(Menu::kAdd)];
        int32_t rhs = kind == BinKind::kDiv                                   ? Int(1, 50)
                      : kind >= BinKind::kBitAnd                              ? Int(0, (1 << 20) - 1)
                                                                              : Int(1, 1000);
        std::vector<JsValue> operands = Operands(menu, k, rhs);
        b.Load(acc_);
        PushVariant(b, operands);
        b.Const(JsValue::Int32(rhs));
        Binary(b, kind, operands, JsValue::Int32(rhs));
        Fold(b);
        return;
      }
    }
  }

  Runtime* rt_;
  Rng* rng_;
  std::vector<SiteSample>* samples_;
  PropKey x_;
  std::vector<PropKey> fillers_;
  JsValue bail_object_;
  int i_ = 0;
  int acc_ = 0;
};

}  // namespace

ProgramSet BuildProgramSet(uint64_t seed, const ProgramSetParams& params) {
  ProgramSet set;
  set.runtime = std::make_unique<Runtime>();
  Rng rng(seed);
  Generator gen(set.runtime.get(), &rng, &set.samples);

  // Variant counts: each menu entry gets each k in 1..8 once across 8
  // programs, in seeded order (k = 1 everywhere when monomorphic).
  std::vector<std::vector<int>> ks(kMenuSize);
  for (auto& per_menu : ks) {
    for (int k = 1; k <= kMaxVariants; ++k) {
      per_menu.push_back(params.polymorphic ? k : 1);
    }
    rng.Shuffle(&per_menu);
  }
  set.programs.reserve(static_cast<size_t>(params.programs));
  for (int p = 0; p < params.programs; ++p) {
    std::vector<std::pair<Menu, int>> body;
    for (int m = 0; m < kMenuSize; ++m) {
      body.push_back({static_cast<Menu>(m), ks[static_cast<size_t>(m)][static_cast<size_t>(p % kMaxVariants)]});
    }
    rng.Shuffle(&body);
    set.programs.push_back(gen.Program(icarus::StrCat("p", p), params.iterations, body));
  }
  return set;
}

}  // namespace perfbench

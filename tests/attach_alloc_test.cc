// A warmed IC attach allocates nothing. This binary replaces the global
// operator new with one that counts, warms an IcCompiler by attaching each
// candidate of a site once, and then requires every repeated attach, one
// that returns an interned stub as well as one that returns NoAction, to
// make no heap allocation. Arguments and names are built before the counted
// region. It also requires a run after Interpreter::ResetIcs to allocate no
// more than a warm run: the reset keeps the sites' storage.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/platform/platform.h"
#include "src/vm/ic.h"
#include "src/vm/interp.h"
#include "src/vm/object.h"
#include "src/vm/workloads.h"

namespace {
long g_allocations = 0;  // The tests are single-threaded.
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace icarus::vm {
namespace {

using K = ConcreteArg::Kind;

struct Candidate {
  std::string generator;
  std::vector<ConcreteArg> args;
  bool attaches;  // Attach, else NoAction.
};

class AttachAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto loaded = platform::Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take();
    compiler_ = std::make_unique<IcCompiler>(platform_.get());
  }

  // Attaches every candidate once, then each again kRepeats times; each
  // repeat must allocate nothing.
  void ExpectWarmedAttachesAllocateNothing(const std::vector<Candidate>& site) {
    for (const Candidate& c : site) {
      auto attached = compiler_->TryAttach(&rt_, c.generator, c.args);
      ASSERT_TRUE(attached.ok()) << attached.status().message();
      ASSERT_EQ(attached.value().has_value(), c.attaches) << c.generator;
    }
    constexpr int kRepeats = 20;
    for (int rep = 0; rep < kRepeats; ++rep) {
      for (const Candidate& c : site) {
        long before = g_allocations;
        auto attached = compiler_->TryAttach(&rt_, c.generator, c.args);
        long made = g_allocations - before;
        ASSERT_TRUE(attached.ok()) << attached.status().message();
        EXPECT_EQ(attached.value().has_value(), c.attaches) << c.generator;
        EXPECT_EQ(made, 0) << c.generator << " allocated on repeat " << rep;
      }
    }
  }

  static std::vector<ConcreteArg> Unary(JsValue v) {
    return {{K::kBoxedValue, v, 0}, {K::kOperand, v, 0}};
  }
  static std::vector<ConcreteArg> Binary(JsValue lhs, JsValue rhs) {
    return {{K::kBoxedValue, lhs, 0}, {K::kOperand, lhs, 0}, {K::kBoxedValue, rhs, 0},
            {K::kOperand, rhs, 0}};
  }

  std::unique_ptr<platform::Platform> platform_;
  std::unique_ptr<IcCompiler> compiler_;
  Runtime rt_;
};

TEST_F(AttachAllocTest, GetPropOfLengthOnAnArray) {
  JsValue array = JsValue::Object(rt_.NewArray({JsValue::Int32(1), JsValue::Int32(2)}));
  int64_t length = rt_.length_atom();
  std::vector<ConcreteArg> args = Unary(array);
  std::vector<ConcreteArg> keyed = args;
  keyed.push_back({K::kRaw, JsValue(), length});
  std::vector<ConcreteArg> typed_array = keyed;
  typed_array.push_back({K::kRaw, JsValue(), 0});  // ICMode::Specialized.
  ExpectWarmedAttachesAllocateNothing({{"tryAttachObjectLength", args, true},
                                       {"bug1685925_fixed", typed_array, false},
                                       {"tryAttachNativeGetPropFixedSlot", keyed, false},
                                       {"tryAttachNativeGetPropDynamicSlot", keyed, false}});
}

TEST_F(AttachAllocTest, GetPropOfAFixedSlot) {
  PropKey x = rt_.Intern("x");
  JsValue object =
      JsValue::Object(rt_.NewPlainObject(rt_.MakeShape(JsClass::kPlainObject, 1, {{x, {true, 0}}})));
  std::vector<ConcreteArg> args = Unary(object);
  args.push_back({K::kRaw, JsValue(), x});
  ExpectWarmedAttachesAllocateNothing({{"tryAttachNativeGetPropFixedSlot", args, true},
                                       {"tryAttachNativeGetPropDynamicSlot", args, false}});
}

TEST_F(AttachAllocTest, CompareAndArithmetic) {
  std::vector<ConcreteArg> ints = Binary(JsValue::Int32(3), JsValue::Int32(4));
  std::vector<ConcreteArg> compare = ints;
  compare.push_back({K::kRaw, JsValue(), 2});  // JSOp::Lt.
  std::vector<ConcreteArg> doubles = Binary(JsValue::Double(0.5), JsValue::Int32(4));
  ExpectWarmedAttachesAllocateNothing({{"tryAttachCompareInt32", compare, true},
                                       {"tryAttachCompareNullUndefined", compare, false},
                                       {"tryAttachCompareStrictDifferentTypes", compare, false},
                                       {"tryAttachInt32Add", ints, true},
                                       {"tryAttachInt32Add", doubles, false},
                                       {"tryAttachInt32Negation", Unary(JsValue::Int32(5)), true}});
}

TEST_F(AttachAllocTest, RunAfterResetIcsAllocatesLikeAWarmRun) {
  // A warm run allocates only its locals and operand stack. After one reset
  // run has grown every site's stub vector and interned every stub, a run
  // after ResetIcs misses, attaches and refills the sites without allocating
  // more than that.
  for (Workload& w : BuildWorkloads(16)) {
    Interpreter interp(w.runtime.get(), compiler_.get(), IcStrategy::kIcarus);
    interp.Run(w.program);
    interp.ResetIcs();
    interp.Run(w.program);
    long before = g_allocations;
    interp.Run(w.program);
    long warm = g_allocations - before;
    const int64_t attached = interp.stats().stubs_attached;
    before = g_allocations;
    interp.ResetIcs();
    interp.Run(w.program);
    long reset = g_allocations - before;
    EXPECT_GT(interp.stats().stubs_attached, attached) << w.name << " attached nothing";
    EXPECT_EQ(reset, warm) << w.name;
  }
}

}  // namespace
}  // namespace icarus::vm

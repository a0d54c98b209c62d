// Unit tests for the machine-state model: operand table, register
// allocation discipline, typed register file, stack bookkeeping, ABI
// save/restore, and Reset.
#include <gtest/gtest.h>

#include <climits>

#include "src/machine/machine_state.h"
#include "src/support/str_util.h"
#include "src/sym/expr.h"

namespace icarus::machine {
namespace {

class MachineTest : public ::testing::Test {
 protected:
  sym::ExprPool pool_;
  MachineState m_;
};

TEST_F(MachineTest, OperandDefinitionAndUse) {
  int id = m_.NewOperandId();
  EXPECT_EQ(id, 0);
  EXPECT_EQ(m_.NewOperandId(), 1);
  StatusOr<int> reg = m_.DefineOperand(id);
  ASSERT_TRUE(reg.ok());
  StatusOr<int> used = m_.UseOperand(id);
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(used.value(), reg.value());
  EXPECT_FALSE(m_.UseOperand(99).ok());
  EXPECT_FALSE(m_.DefineOperand(id).ok());  // Double definition.
}

TEST_F(MachineTest, ScratchAllocationAndRelease) {
  StatusOr<int> s1 = m_.AllocScratch();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(m_.alloc_state(s1.value()), AllocState::kScratch);
  ASSERT_TRUE(m_.ReleaseScratch(s1.value()).ok());
  EXPECT_EQ(m_.alloc_state(s1.value()), AllocState::kFree);
  // Releasing a non-scratch register fails.
  EXPECT_FALSE(m_.ReleaseScratch(s1.value()).ok());
  EXPECT_FALSE(m_.ReleaseScratch(99).ok());
}

TEST_F(MachineTest, RegisterFileExhaustion) {
  // 7 general registers (reg 7 is the output).
  for (int i = 0; i < kNumRegs - 1; ++i) {
    ASSERT_TRUE(m_.AllocScratch().ok()) << i;
  }
  EXPECT_FALSE(m_.AllocScratch().ok());
}

TEST_F(MachineTest, WriteDiscipline) {
  // Output register is always writable.
  EXPECT_TRUE(m_.CheckWritable(MachineState::OutputReg(), "test").ok());
  // Never-allocated register is not (the clobber check).
  EXPECT_FALSE(m_.CheckWritable(6, "test").ok());
  // Once allocated — even after release — it is considered compiler-owned.
  StatusOr<int> s = m_.AllocScratch();
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(m_.CheckWritable(s.value(), "test").ok());
  ASSERT_TRUE(m_.ReleaseScratch(s.value()).ok());
  EXPECT_TRUE(m_.CheckWritable(s.value(), "test").ok());
}

TEST_F(MachineTest, TypedRegisterReads) {
  sym::ExprRef v = pool_.Var("v", sym::Sort::kTerm);
  ASSERT_TRUE(m_.WriteReg(2, RegContent::kValue, v).ok());
  StatusOr<RegVal> ok_read = m_.ReadReg(2, RegContent::kValue, "test");
  ASSERT_TRUE(ok_read.ok());
  EXPECT_EQ(ok_read.value().term, v);
  // Type confusion at the register level.
  StatusOr<RegVal> bad = m_.ReadReg(2, RegContent::kInt32, "test");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("type confusion"), std::string::npos);
  // Uninitialized register.
  EXPECT_FALSE(m_.ReadReg(3, RegContent::kValue, "test").ok());
}

TEST_F(MachineTest, StackBalance) {
  EXPECT_TRUE(m_.CheckStackBalanced("entry").ok());
  m_.Push(RegVal{RegContent::kValue, nullptr});
  Status st = m_.CheckStackBalanced("exit");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("stack imbalance"), std::string::npos);
  ASSERT_TRUE(m_.Pop().ok());
  EXPECT_TRUE(m_.CheckStackBalanced("exit").ok());
  // Underflow past the entry frame.
  EXPECT_FALSE(m_.Pop().ok());
}

TEST_F(MachineTest, ClobberAndSaveRestore) {
  sym::ExprRef v = pool_.Var("v", sym::Sort::kTerm);
  ASSERT_TRUE(m_.WriteReg(1, RegContent::kObject, v).ok());
  m_.ClobberVolatileRegs();
  Status clobbered = m_.ReadReg(1, RegContent::kObject, "test").status();
  EXPECT_FALSE(clobbered.ok());
  EXPECT_NE(clobbered.message().find("clobbered"), std::string::npos);

  // With save/restore the value survives the call.
  ASSERT_TRUE(m_.WriteReg(1, RegContent::kObject, v).ok());
  m_.SaveLiveRegs();
  m_.ClobberVolatileRegs();
  ASSERT_TRUE(m_.RestoreLiveRegs().ok());
  StatusOr<RegVal> restored = m_.ReadReg(1, RegContent::kObject, "test");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().term, v);
  EXPECT_TRUE(m_.CheckStackBalanced("exit").ok());
  // Unbalanced restore fails.
  EXPECT_FALSE(m_.RestoreLiveRegs().ok());
}

TEST_F(MachineTest, KnownTypes) {
  EXPECT_EQ(m_.KnownType(0), -1);
  ASSERT_TRUE(m_.SetKnownType(0, 10).ok());
  EXPECT_EQ(m_.KnownType(0), 10);
}

// The operand table is indexed by operand id: an id outside it is an error
// or unknown, never an index.
TEST_F(MachineTest, OperandIdsOutsideTheTable) {
  for (int id : {-1, -1000, INT32_MIN, kMaxOperandIds, 1 << 20, INT32_MAX}) {
    StatusOr<int> used = m_.UseOperand(id);
    ASSERT_FALSE(used.ok()) << id;
    EXPECT_EQ(used.status().message(), StrCat("use of undefined operand ", id));
    EXPECT_EQ(m_.KnownType(id), -1) << id;
    EXPECT_FALSE(m_.DefineOperand(id).ok()) << id;
    EXPECT_FALSE(m_.SetKnownType(id, 1).ok()) << id;
    EXPECT_EQ(m_.KnownType(id), -1) << id;
  }
  // The last id the table holds works like any other, and past the ids in
  // use the table answers as for an id never defined.
  const int last = kMaxOperandIds - 1;
  StatusOr<int> reg = m_.DefineOperand(last);
  ASSERT_TRUE(reg.ok()) << reg.status().message();
  StatusOr<int> again = m_.DefineOperand(last);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().message(), StrCat("operand ", last, " defined twice"));
  EXPECT_EQ(m_.UseOperand(last).value(), reg.value());
  ASSERT_TRUE(m_.SetKnownType(last, 6).ok());
  EXPECT_EQ(m_.KnownType(last), 6);
  EXPECT_EQ(m_.KnownType(last - 1), -1);
  StatusOr<int> below = m_.UseOperand(last - 1);
  ASSERT_FALSE(below.ok());
  EXPECT_EQ(below.status().message(), StrCat("use of undefined operand ", last - 1));
}

TEST_F(MachineTest, ResetIsAFreshState) {
  sym::ExprRef v = pool_.Var("v", sym::Sort::kTerm);
  int a = m_.NewOperandId();
  int b = m_.NewOperandId();
  ASSERT_TRUE(m_.DefineOperand(a).ok());
  ASSERT_TRUE(m_.DefineOperand(b).ok());
  ASSERT_TRUE(m_.SetKnownType(a, 10).ok());
  ASSERT_TRUE(m_.AllocScratch().ok());
  ASSERT_TRUE(m_.WriteReg(0, RegContent::kValue, v).ok());
  m_.Push(RegVal{RegContent::kValue, v});
  m_.SaveLiveRegs();

  m_.Reset();
  MachineState fresh;
  EXPECT_EQ(m_.NewOperandId(), 0);
  EXPECT_EQ(m_.NewOperandId(), 1);
  for (int id : {a, b}) {
    EXPECT_FALSE(m_.UseOperand(id).ok()) << id;
    EXPECT_EQ(m_.KnownType(id), -1) << id;
  }
  for (int r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(m_.alloc_state(r), AllocState::kFree) << r;
    EXPECT_EQ(m_.ReadRegRaw(r).content, RegContent::kNone) << r;
    EXPECT_EQ(m_.CheckWritable(r, "test").ok(), fresh.CheckWritable(r, "test").ok()) << r;
  }
  EXPECT_EQ(m_.stack_depth(), 0);
  EXPECT_FALSE(m_.live_regs_saved());
  EXPECT_TRUE(m_.CheckStackBalanced("entry").ok());
  EXPECT_EQ(m_.Describe(), fresh.Describe());
  // Defining works as on a fresh state: the same registers, in order.
  StatusOr<int> reg = m_.DefineOperand(0);
  StatusOr<int> fresh_reg = fresh.DefineOperand(0);
  ASSERT_TRUE(reg.ok() && fresh_reg.ok());
  EXPECT_EQ(reg.value(), fresh_reg.value());
}

}  // namespace
}  // namespace icarus::machine

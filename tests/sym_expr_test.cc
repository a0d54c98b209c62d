#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/support/str_util.h"
#include "src/sym/expr.h"
#include "src/sym/solver_cache.h"

namespace icarus::sym {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprPool pool_;
};

TEST_F(ExprTest, HashConsing) {
  ExprRef a = pool_.Var("x", Sort::kInt);
  ExprRef b = pool_.Var("x", Sort::kInt);
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool_.IntConst(5), pool_.IntConst(5));
  EXPECT_NE(pool_.IntConst(5), pool_.IntConst(6));
  ExprRef s1 = pool_.Add(a, pool_.IntConst(1));
  ExprRef s2 = pool_.Add(b, pool_.IntConst(1));
  EXPECT_EQ(s1, s2);
}

TEST_F(ExprTest, FreshVarsDistinct) {
  EXPECT_NE(pool_.Fresh("v", Sort::kInt), pool_.Fresh("v", Sort::kInt));
}

TEST_F(ExprTest, ConstantFolding) {
  ExprRef five = pool_.IntConst(5);
  ExprRef three = pool_.IntConst(3);
  EXPECT_EQ(pool_.Add(five, three), pool_.IntConst(8));
  EXPECT_EQ(pool_.Sub(five, three), pool_.IntConst(2));
  EXPECT_EQ(pool_.Mul(five, three), pool_.IntConst(15));
  EXPECT_EQ(pool_.Div(five, three), pool_.IntConst(1));
  EXPECT_EQ(pool_.Mod(five, three), pool_.IntConst(2));
  EXPECT_EQ(pool_.Neg(five), pool_.IntConst(-5));
  EXPECT_EQ(pool_.BitAnd(five, three), pool_.IntConst(1));
  EXPECT_EQ(pool_.BitOr(five, three), pool_.IntConst(7));
  EXPECT_EQ(pool_.BitXor(five, three), pool_.IntConst(6));
  EXPECT_EQ(pool_.Shl(pool_.IntConst(1), three), pool_.IntConst(8));
  EXPECT_EQ(pool_.Shr(pool_.IntConst(-8), pool_.IntConst(1)), pool_.IntConst(-4));
}

TEST_F(ExprTest, DivByZeroNotFolded) {
  ExprRef d = pool_.Div(pool_.IntConst(5), pool_.IntConst(0));
  EXPECT_EQ(d->kind, Kind::kDiv);
}

TEST_F(ExprTest, Identities) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  EXPECT_EQ(pool_.Add(x, pool_.IntConst(0)), x);
  EXPECT_EQ(pool_.Mul(x, pool_.IntConst(1)), x);
  EXPECT_EQ(pool_.Mul(x, pool_.IntConst(0)), pool_.IntConst(0));
  EXPECT_EQ(pool_.Sub(x, x), pool_.IntConst(0));
  EXPECT_EQ(pool_.Neg(pool_.Neg(x)), x);
}

TEST_F(ExprTest, BooleanSimplification) {
  ExprRef p = pool_.Var("p", Sort::kBool);
  EXPECT_EQ(pool_.And(p, pool_.True()), p);
  EXPECT_EQ(pool_.And(p, pool_.False()), pool_.False());
  EXPECT_EQ(pool_.Or(p, pool_.False()), p);
  EXPECT_EQ(pool_.Or(p, pool_.True()), pool_.True());
  EXPECT_EQ(pool_.Not(pool_.Not(p)), p);
  EXPECT_EQ(pool_.And(p, p), p);
}

TEST_F(ExprTest, ComparisonFolding) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  EXPECT_EQ(pool_.Eq(x, x), pool_.True());
  EXPECT_EQ(pool_.Lt(x, x), pool_.False());
  EXPECT_EQ(pool_.Le(x, x), pool_.True());
  EXPECT_EQ(pool_.Lt(pool_.IntConst(1), pool_.IntConst(2)), pool_.True());
  EXPECT_EQ(pool_.Eq(pool_.IntConst(1), pool_.IntConst(2)), pool_.False());
}

TEST_F(ExprTest, EqCanonicalOrder) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  EXPECT_EQ(pool_.Eq(x, y), pool_.Eq(y, x));
}

TEST_F(ExprTest, BoolEqLowered) {
  ExprRef p = pool_.Var("p", Sort::kBool);
  ExprRef q = pool_.Var("q", Sort::kBool);
  ExprRef eq = pool_.Eq(p, q);
  // Should be lowered to connectives, never a kEq over bools.
  EXPECT_NE(eq->kind, Kind::kEq);
}

TEST_F(ExprTest, AppCongruentIdentity) {
  ExprRef o = pool_.Var("obj", Sort::kTerm);
  ExprRef s1 = pool_.App("shapeOf", {o}, Sort::kTerm);
  ExprRef s2 = pool_.App("shapeOf", {o}, Sort::kTerm);
  EXPECT_EQ(s1, s2);
}

TEST_F(ExprTest, ToString) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef e = pool_.Lt(pool_.Add(x, pool_.IntConst(1)), pool_.IntConst(10));
  EXPECT_EQ(ExprPool::ToString(e), "((x + 1) < 10)");
  ExprRef app = pool_.App("f", {x}, Sort::kInt);
  EXPECT_EQ(ExprPool::ToString(app), "f(x)");
}

// Node::chash keys the persisted solver cache (kCacheStoreVersion 3), so a
// change to how terms are stored or interned must not move it: these are
// the values every earlier build computed.
TEST_F(ExprTest, StructuralHashesArePinned) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  ExprRef obj = pool_.Var("obj", Sort::kTerm);
  ExprRef eq = pool_.Eq(x, y);
  ExprRef lt = pool_.Lt(x, pool_.IntConst(10));
  EXPECT_EQ(x->chash, 0xe4b3bef4d51f8e15ULL);
  EXPECT_EQ(pool_.IntConst(42)->chash, 0x87413d434e8d5be0ULL);
  EXPECT_EQ(pool_.App("shapeOf", {obj}, Sort::kTerm)->chash, 0x6685e6f6b2d38c52ULL);
  EXPECT_EQ(pool_.And(eq, lt)->chash, 0xdd58f20053907a83ULL);
  EXPECT_EQ(pool_.Not(eq)->chash, 0x95f6a917aefe6a12ULL);
  const QueryKey key = FingerprintQuery({lt, pool_.Not(eq), pool_.Var("p", Sort::kBool)});
  EXPECT_EQ(key.lo, 0x91325bf442c05546ULL);
  EXPECT_EQ(key.hi, 0xa797d3a141299a65ULL);
}

// Interning 100,000 distinct nodes and then rebuilding each finds every
// node again: the table grows without losing one, ids follow creation
// order, and a rebuild makes nothing new.
TEST_F(ExprTest, RebuildingInternedNodesFindsThemAgain) {
  constexpr int kNodes = 100000;
  auto build = [this](int i, const std::vector<ExprRef>& made) {
    switch (i % 3) {
      case 0:
        return pool_.IntConst(1000000 + i);
      case 1:
        return pool_.Var(StrCat("v", i), Sort::kInt);
      default:
        return pool_.App("f", {made[static_cast<size_t>(i - 1)], made[static_cast<size_t>(i - 2)]},
                         Sort::kInt);
    }
  };
  std::vector<ExprRef> made;
  made.reserve(kNodes);
  const size_t before = pool_.size();
  for (int i = 0; i < kNodes; ++i) {
    made.push_back(build(i, made));
  }
  ASSERT_EQ(pool_.size(), before + kNodes);
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_EQ(made[static_cast<size_t>(i)]->id, before + static_cast<size_t>(i));
  }
  for (int i = 0; i < kNodes; ++i) {
    ASSERT_EQ(build(i, made), made[static_cast<size_t>(i)]) << i;
  }
  EXPECT_EQ(pool_.size(), before + kNodes);
  EXPECT_EQ(made[4]->name, "v4");
  ASSERT_EQ(made[5]->args.size(), 2u);
  EXPECT_EQ(made[5]->args[0], made[4]);
}

}  // namespace
}  // namespace icarus::sym

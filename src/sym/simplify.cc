// Smart constructors with local simplification.
//
// Constant folding and identity rewrites happen here, at term-construction
// time. Because terms are hash-consed, this also canonicalizes: a guard's
// condition and the matching assertion usually become the *same node*, which
// lets the solver discharge them propositionally.

#include <utility>

#include "src/obs/metrics.h"
#include "src/support/check.h"
#include "src/sym/expr.h"

namespace icarus::sym {

namespace {

constexpr int64_t kInt32Min = -2147483648LL;
constexpr int64_t kInt32Max = 2147483647LL;

bool BothConstInt(ExprRef a, ExprRef b) {
  return a->kind == Kind::kConstInt && b->kind == Kind::kConstInt;
}

// Every simplified return funnels through Rw() so the observability layer
// can count how many rewrites actually fired (vs. terms materialized); with
// obs disabled this is the usual single relaxed load, folded to nothing when
// compiled out.
ExprRef Rw(ExprRef rewritten) {
  if (obs::Enabled()) {
    static obs::Counter* rewrites = obs::Registry::Global().GetCounter(
        "icarus_simplify_rewrites_total",
        "Constant folds and identity rewrites fired by term smart constructors");
    rewrites->Add(1);
  }
  return rewritten;
}

}  // namespace

ExprRef ExprPool::Add(ExprRef a, ExprRef b) {
  ICARUS_REQUIRE(a->sort == Sort::kInt && b->sort == Sort::kInt);
  if (BothConstInt(a, b)) {
    return Rw(IntConst(a->value + b->value));
  }
  if (a->kind == Kind::kConstInt && a->value == 0) {
    return Rw(b);
  }
  if (b->kind == Kind::kConstInt && b->value == 0) {
    return Rw(a);
  }
  // Canonicalize constant to the right for better sharing.
  if (a->kind == Kind::kConstInt) {
    std::swap(a, b);
  }
  return MakeBinary(Kind::kAdd, Sort::kInt, a, b);
}

ExprRef ExprPool::Sub(ExprRef a, ExprRef b) {
  ICARUS_REQUIRE(a->sort == Sort::kInt && b->sort == Sort::kInt);
  if (BothConstInt(a, b)) {
    return Rw(IntConst(a->value - b->value));
  }
  if (b->kind == Kind::kConstInt && b->value == 0) {
    return Rw(a);
  }
  if (a == b) {
    return Rw(IntConst(0));
  }
  return MakeBinary(Kind::kSub, Sort::kInt, a, b);
}

ExprRef ExprPool::Mul(ExprRef a, ExprRef b) {
  ICARUS_REQUIRE(a->sort == Sort::kInt && b->sort == Sort::kInt);
  if (BothConstInt(a, b)) {
    return Rw(IntConst(a->value * b->value));
  }
  if (a->kind == Kind::kConstInt) {
    std::swap(a, b);
  }
  if (b->kind == Kind::kConstInt) {
    if (b->value == 0) {
      return Rw(IntConst(0));
    }
    if (b->value == 1) {
      return Rw(a);
    }
  }
  return MakeBinary(Kind::kMul, Sort::kInt, a, b);
}

ExprRef ExprPool::Div(ExprRef a, ExprRef b) {
  ICARUS_REQUIRE(a->sort == Sort::kInt && b->sort == Sort::kInt);
  // Fold only when well-defined (nonzero divisor, no INT64_MIN/-1 overflow).
  if (BothConstInt(a, b) && b->value != 0 && !(a->value == INT64_MIN && b->value == -1)) {
    return Rw(IntConst(a->value / b->value));
  }
  if (b->kind == Kind::kConstInt && b->value == 1) {
    return Rw(a);
  }
  return MakeBinary(Kind::kDiv, Sort::kInt, a, b);
}

ExprRef ExprPool::Mod(ExprRef a, ExprRef b) {
  ICARUS_REQUIRE(a->sort == Sort::kInt && b->sort == Sort::kInt);
  if (BothConstInt(a, b) && b->value != 0 && !(a->value == INT64_MIN && b->value == -1)) {
    return Rw(IntConst(a->value % b->value));
  }
  return MakeBinary(Kind::kMod, Sort::kInt, a, b);
}

ExprRef ExprPool::Neg(ExprRef a) {
  ICARUS_REQUIRE(a->sort == Sort::kInt);
  if (a->kind == Kind::kConstInt) {
    return Rw(IntConst(-a->value));
  }
  if (a->kind == Kind::kNeg) {
    return Rw(a->args[0]);
  }
  Node n;
  n.kind = Kind::kNeg;
  n.sort = Sort::kInt;
  n.args = {a};
  return Intern(std::move(n));
}

ExprRef ExprPool::BitAnd(ExprRef a, ExprRef b) {
  if (BothConstInt(a, b)) {
    return Rw(IntConst(a->value & b->value));
  }
  if (a->kind == Kind::kConstInt) {
    std::swap(a, b);
  }
  if (b->kind == Kind::kConstInt && b->value == 0) {
    return Rw(IntConst(0));
  }
  if (a == b) {
    return Rw(a);
  }
  return MakeBinary(Kind::kBitAnd, Sort::kInt, a, b);
}

ExprRef ExprPool::BitOr(ExprRef a, ExprRef b) {
  if (BothConstInt(a, b)) {
    return Rw(IntConst(a->value | b->value));
  }
  if (a->kind == Kind::kConstInt) {
    std::swap(a, b);
  }
  if (b->kind == Kind::kConstInt && b->value == 0) {
    return Rw(a);
  }
  if (a == b) {
    return Rw(a);
  }
  return MakeBinary(Kind::kBitOr, Sort::kInt, a, b);
}

ExprRef ExprPool::BitXor(ExprRef a, ExprRef b) {
  if (BothConstInt(a, b)) {
    return Rw(IntConst(a->value ^ b->value));
  }
  if (a == b) {
    return Rw(IntConst(0));
  }
  return MakeBinary(Kind::kBitXor, Sort::kInt, a, b);
}

ExprRef ExprPool::Shl(ExprRef a, ExprRef b) {
  if (BothConstInt(a, b) && b->value >= 0 && b->value < 63) {
    return Rw(IntConst(static_cast<int64_t>(static_cast<uint64_t>(a->value) << b->value)));
  }
  return MakeBinary(Kind::kShl, Sort::kInt, a, b);
}

ExprRef ExprPool::Shr(ExprRef a, ExprRef b) {
  if (BothConstInt(a, b) && b->value >= 0 && b->value < 64) {
    return Rw(IntConst(a->value >> b->value));
  }
  return MakeBinary(Kind::kShr, Sort::kInt, a, b);
}

ExprRef ExprPool::Eq(ExprRef a, ExprRef b) {
  ICARUS_REQUIRE(a->sort == b->sort);
  if (a == b) {
    return Rw(True());
  }
  if (a->IsConst() && b->IsConst()) {
    return Rw(BoolConst(a->value == b->value));
  }
  if (a->sort == Sort::kBool) {
    // Boolean equality: fold against constants to keep the skeleton simple.
    if (a->IsTrue()) {
      return Rw(b);
    }
    if (b->IsTrue()) {
      return Rw(a);
    }
    if (a->IsFalse()) {
      return Rw(Not(b));
    }
    if (b->IsFalse()) {
      return Rw(Not(a));
    }
    // Lower bool==bool to connectives so the solver's atom layer only ever
    // sees equalities between first-order terms.
    return Or(And(a, b), And(Not(a), Not(b)));
  }
  // Canonical operand order (hash-consing gives each node a stable id).
  if (a->id > b->id) {
    std::swap(a, b);
  }
  return MakeBinary(Kind::kEq, Sort::kBool, a, b);
}

ExprRef ExprPool::Lt(ExprRef a, ExprRef b) {
  ICARUS_REQUIRE(a->sort == Sort::kInt && b->sort == Sort::kInt);
  if (BothConstInt(a, b)) {
    return Rw(BoolConst(a->value < b->value));
  }
  if (a == b) {
    return Rw(False());
  }
  return MakeBinary(Kind::kLt, Sort::kBool, a, b);
}

ExprRef ExprPool::Le(ExprRef a, ExprRef b) {
  ICARUS_REQUIRE(a->sort == Sort::kInt && b->sort == Sort::kInt);
  if (BothConstInt(a, b)) {
    return Rw(BoolConst(a->value <= b->value));
  }
  if (a == b) {
    return Rw(True());
  }
  return MakeBinary(Kind::kLe, Sort::kBool, a, b);
}

ExprRef ExprPool::Not(ExprRef a) {
  ICARUS_REQUIRE(a->sort == Sort::kBool);
  if (a->IsConst()) {
    return Rw(BoolConst(a->value == 0));
  }
  if (a->kind == Kind::kNot) {
    return Rw(a->args[0]);
  }
  Node n;
  n.kind = Kind::kNot;
  n.sort = Sort::kBool;
  n.args = {a};
  return Intern(std::move(n));
}

ExprRef ExprPool::And(ExprRef a, ExprRef b) {
  ICARUS_REQUIRE(a->sort == Sort::kBool && b->sort == Sort::kBool);
  if (a->IsFalse() || b->IsFalse()) {
    return Rw(False());
  }
  if (a->IsTrue()) {
    return Rw(b);
  }
  if (b->IsTrue()) {
    return Rw(a);
  }
  if (a == b) {
    return Rw(a);
  }
  if (a->id > b->id) {
    std::swap(a, b);
  }
  return MakeBinary(Kind::kAnd, Sort::kBool, a, b);
}

ExprRef ExprPool::Or(ExprRef a, ExprRef b) {
  ICARUS_REQUIRE(a->sort == Sort::kBool && b->sort == Sort::kBool);
  if (a->IsTrue() || b->IsTrue()) {
    return Rw(True());
  }
  if (a->IsFalse()) {
    return Rw(b);
  }
  if (b->IsFalse()) {
    return Rw(a);
  }
  if (a == b) {
    return Rw(a);
  }
  if (a->id > b->id) {
    std::swap(a, b);
  }
  return MakeBinary(Kind::kOr, Sort::kBool, a, b);
}

}  // namespace icarus::sym

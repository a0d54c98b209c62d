// The theory engine (src/sym/theory.h) against the reference checker it
// replaced (tests/reference_theory.h): one hand-written conflict per
// explanation kind with its exact lemma atoms, random literal sets over the
// solver fuzz test's atom pool, and every attached path's queries over the
// 38 platform units.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/meta/meta_executor.h"
#include "src/platform/platform.h"
#include "src/sym/expr.h"
#include "src/sym/solver.h"
#include "src/sym/theory.h"
#include "tests/decide_only_oracle.h"
#include "tests/reference_theory.h"

namespace icarus::sym {
namespace {

using Literal = std::pair<ExprRef, bool>;

// Checks `lits` on `engine` from an empty stack, each literal on a level of
// its own (so the engine reasons one literal at a time); on a conflict
// `*lemma` receives the explained literals, in the order they were given.
// After a consistent check the literals stay asserted for BuildModel.
bool EngineCheck(TheoryEngine* engine, const std::vector<Literal>& lits,
                 std::vector<Literal>* lemma) {
  engine->Backtrack(0);
  for (size_t i = 0; i < lits.size(); ++i) {
    engine->Assert(engine->AddAtom(lits[i].first), lits[i].second, static_cast<int>(i) + 1);
  }
  std::vector<int> positions;
  bool ok = engine->Check(&positions);
  lemma->clear();
  for (int p : positions) {
    lemma->push_back(lits[static_cast<size_t>(p)]);
  }
  return ok;
}

// Value of an integer term under a model's witnesses: variables, constants,
// and sums or differences of them.
bool Eval(const Model& m, ExprRef t, int64_t* out) {
  switch (t->kind) {
    case Kind::kConstInt:
      *out = t->value;
      return true;
    case Kind::kVar:
      return m.LookupWitness(t->name, out);
    case Kind::kAdd:
    case Kind::kSub: {
      int64_t a = 0;
      int64_t b = 0;
      if (!Eval(m, t->args[0], &a) || !Eval(m, t->args[1], &b)) {
        return false;
      }
      *out = t->kind == Kind::kAdd ? a + b : a - b;
      return true;
    }
    default:
      return false;
  }
}

class TheoryTest : public ::testing::Test {
 protected:
  // The explanation of a conflict, or a failure when the literals are
  // consistent.
  std::vector<Literal> Lemma(const std::vector<Literal>& lits) {
    std::vector<Literal> lemma;
    EXPECT_FALSE(EngineCheck(&engine_, lits, &lemma)) << "expected a conflict";
    EXPECT_FALSE(CheckTheory(lits, nullptr)) << "the reference disagrees";
    EXPECT_FALSE(CheckTheory(lemma, nullptr)) << "the lemma is not a conflict";
    return lemma;
  }
  ExprRef Int(const char* name) { return pool_.Var(name, Sort::kInt); }
  ExprRef Obj(const char* name) { return pool_.Var(name, Sort::kTerm); }

  ExprPool pool_;
  TheoryEngine engine_;
};

TEST_F(TheoryTest, TransitiveEqualityAgainstDisequality) {
  ExprRef x = Obj("x");
  ExprRef y = Obj("y");
  ExprRef z = Obj("z");
  std::vector<Literal> lits = {
      {pool_.Eq(x, y), true}, {pool_.Eq(y, z), true}, {pool_.Eq(x, z), false}};
  EXPECT_EQ(Lemma(lits), lits);
}

TEST_F(TheoryTest, CongruenceAgainstDisequality) {
  ExprRef x = Obj("x");
  ExprRef y = Obj("y");
  ExprRef fx = pool_.App("f", {x}, Sort::kTerm);
  ExprRef fy = pool_.App("f", {y}, Sort::kTerm);
  std::vector<Literal> lits = {{pool_.Eq(x, y), true}, {pool_.Eq(fx, fy), false}};
  EXPECT_EQ(Lemma(lits), lits);
}

TEST_F(TheoryTest, PredicateAgainstItsNegationThroughAnEquality) {
  ExprRef x = Obj("x");
  ExprRef y = Obj("y");
  std::vector<Literal> lits = {{pool_.App("p", {x}, Sort::kBool), true},
                               {pool_.Eq(x, y), true},
                               {pool_.App("p", {y}, Sort::kBool), false}};
  EXPECT_EQ(Lemma(lits), lits);
}

TEST_F(TheoryTest, ConstantClash) {
  ExprRef x = Int("x");
  ExprRef y = Int("y");
  std::vector<Literal> lits = {{pool_.Eq(x, pool_.IntConst(1)), true},
                               {pool_.Eq(x, y), true},
                               {pool_.Eq(y, pool_.IntConst(2)), true}};
  EXPECT_EQ(Lemma(lits), lits);
}

TEST_F(TheoryTest, NegativeDifferenceCycle) {
  ExprRef x = Int("x");
  ExprRef y = Int("y");
  ExprRef z = Int("z");
  std::vector<Literal> lits = {
      {pool_.Lt(x, y), true}, {pool_.Lt(y, z), true}, {pool_.Lt(z, x), true}};
  EXPECT_EQ(Lemma(lits), lits);
}

TEST_F(TheoryTest, IntervalChainThroughAddAndMul) {
  // a ∈ [0,3], b ∈ [0,2] bound a*b by 6, so a*b + c <= 7 once c <= 1; the
  // literal 7 < a*b + c then conflicts. 0 <= c plays no part.
  ExprRef a = Int("a");
  ExprRef b = Int("b");
  ExprRef c = Int("c");
  ExprRef s = pool_.Add(pool_.Mul(a, b), c);
  ExprRef zero = pool_.IntConst(0);
  std::vector<Literal> lits = {{pool_.Le(zero, a), true},
                               {pool_.Le(a, pool_.IntConst(3)), true},
                               {pool_.Le(zero, b), true},
                               {pool_.Le(b, pool_.IntConst(2)), true},
                               {pool_.Le(zero, c), true},
                               {pool_.Le(c, pool_.IntConst(1)), true},
                               {pool_.Lt(pool_.IntConst(7), s), true}};
  std::vector<Literal> want = lits;
  want.erase(want.begin() + 4);
  EXPECT_EQ(Lemma(lits), want);
}

TEST_F(TheoryTest, UnrelatedAtomsStayOutOfTheLemma) {
  ExprRef x = Int("x");
  ExprRef y = Int("y");
  ExprRef u = Int("u");
  ExprRef v = Obj("v");
  ExprRef w = Obj("w");
  std::vector<Literal> lits = {{pool_.App("q", {v}, Sort::kBool), true},
                               {pool_.Lt(x, y), true},
                               {pool_.Eq(v, w), true},
                               {pool_.Le(pool_.IntConst(0), u), true},
                               {pool_.Eq(u, pool_.IntConst(5)), false},
                               {pool_.Lt(y, pool_.Add(x, pool_.IntConst(1))), true},
                               {pool_.Eq(pool_.App("g", {w}, Sort::kInt), y), true}};
  EXPECT_EQ(Lemma(lits), (std::vector<Literal>{lits[1], lits[5]}));
}

// Difference bounds that force two terms equal: x <= y <= x, a zero-weight
// cycle through three terms, and the same equality seen through f, with the
// direct x == y as the control. Both engines refute all four with every
// literal in the lemma, and so do the production solver and the decide-only
// search on the conjunctions.
TEST_F(TheoryTest, ZeroWeightCyclesForceEquality) {
  ExprRef x = Int("x");
  ExprRef y = Int("y");
  ExprRef z = Int("z");
  ExprRef fx = pool_.App("f", {x}, Sort::kInt);
  ExprRef fy = pool_.App("f", {y}, Sort::kInt);
  const std::vector<std::vector<Literal>> probes = {
      {{pool_.Le(x, y), true}, {pool_.Le(y, x), true}, {pool_.Eq(x, y), false}},
      {{pool_.Le(x, y), true},
       {pool_.Le(y, z), true},
       {pool_.Le(z, x), true},
       {pool_.Eq(x, z), false}},
      {{pool_.Le(x, y), true}, {pool_.Le(y, x), true}, {pool_.Eq(fx, fy), false}},
      {{pool_.Eq(x, y), true}, {pool_.Eq(x, y), false}},
  };
  for (const std::vector<Literal>& lits : probes) {
    EXPECT_EQ(Lemma(lits), lits);
    std::vector<ExprRef> conjuncts;
    for (const auto& [atom, truth] : lits) {
      conjuncts.push_back(truth ? atom : pool_.Not(atom));
    }
    EXPECT_EQ(Solver().Solve(conjuncts).verdict, Verdict::kUnsat);
    EXPECT_EQ(DecideOnlySolve(conjuncts).verdict, Verdict::kUnsat);
  }
}

TEST_F(TheoryTest, ConsistentLiteralsGetAModelThatSatisfiesThem) {
  ExprRef x = Int("x");
  ExprRef y = Int("y");
  // x <= y ∧ x != y ∧ y = 2 ∧ x != 1: the engine must place x below 1.
  std::vector<Literal> lits = {{pool_.Le(x, y), true},
                               {pool_.Eq(x, y), false},
                               {pool_.Eq(y, pool_.IntConst(2)), true},
                               {pool_.Eq(x, pool_.IntConst(1)), false}};
  std::vector<Literal> lemma;
  ASSERT_TRUE(EngineCheck(&engine_, lits, &lemma));
  Model m;
  engine_.BuildModel(&m);
  int64_t xv = 0;
  int64_t yv = 0;
  ASSERT_TRUE(m.LookupWitness("x", &xv));
  ASSERT_TRUE(m.LookupWitness("y", &yv));
  EXPECT_EQ(yv, 2);
  EXPECT_LT(xv, 1);
}

// ---------------------------------------------------------------------------
// Random literal sets over SolverFuzzTest's atom pool: the engine and the
// reference agree on every set, every explanation is a conflict by the
// reference, and every model satisfies every literal.
// ---------------------------------------------------------------------------

class TheoryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TheoryFuzzTest, EngineMatchesReference) {
  uint64_t state = GetParam() * 0x9E3779B97F4A7C15ULL + 1;
  auto rnd = [&state](int n) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<int>(state % static_cast<uint64_t>(n));
  };
  ExprPool pool;
  std::vector<ExprRef> bools;
  std::vector<ExprRef> ints;
  for (int i = 0; i < 3; ++i) {
    bools.push_back(pool.Var("p" + std::to_string(i), Sort::kBool));
    ints.push_back(pool.Var("i" + std::to_string(i), Sort::kInt));
  }
  auto atom = [&]() -> ExprRef {
    for (;;) {
      ExprRef a = nullptr;
      switch (rnd(4)) {
        case 0:
          a = bools[static_cast<size_t>(rnd(3))];
          break;
        case 1:
          a = pool.Lt(ints[static_cast<size_t>(rnd(3))], ints[static_cast<size_t>(rnd(3))]);
          break;
        case 2:
          a = pool.Eq(ints[static_cast<size_t>(rnd(3))], pool.IntConst(rnd(4)));
          break;
        default:
          a = pool.Le(ints[static_cast<size_t>(rnd(3))],
                      pool.Add(ints[static_cast<size_t>(rnd(3))], pool.IntConst(rnd(3))));
          break;
      }
      if (IsAtomKind(a)) {  // Skip atoms the pool folded to a constant.
        return a;
      }
    }
  };
  TheoryEngine engine;  // One per pool, reused across rounds like a solver's.
  for (int round = 0; round < 24; ++round) {
    std::vector<Literal> lits;
    int n = 2 + rnd(9);
    for (int i = 0; i < n; ++i) {
      ExprRef a = atom();
      bool dup = false;
      for (const Literal& l : lits) {
        dup = dup || l.first == a;
      }
      if (!dup) {
        lits.emplace_back(a, rnd(2) == 0);
      }
    }
    std::vector<Literal> lemma;
    bool ok = EngineCheck(&engine, lits, &lemma);
    ASSERT_EQ(ok, CheckTheory(lits, nullptr))
        << "seed " << GetParam() << " round " << round;
    if (!ok) {
      ASSERT_FALSE(lemma.empty());
      EXPECT_FALSE(CheckTheory(lemma, nullptr))
          << "seed " << GetParam() << " round " << round << ": lemma is satisfiable";
      continue;
    }
    Model m;
    engine.BuildModel(&m);
    for (const auto& [a, truth] : lits) {
      if (a->kind == Kind::kVar) {
        continue;  // Boolean variables are the CDCL core's, not the theory's.
      }
      int64_t lhs = 0;
      int64_t rhs = 0;
      ASSERT_TRUE(Eval(m, a->args[0], &lhs) && Eval(m, a->args[1], &rhs));
      bool holds = a->kind == Kind::kEq ? lhs == rhs : a->kind == Kind::kLt ? lhs < rhs : lhs <= rhs;
      EXPECT_EQ(holds, truth) << "seed " << GetParam() << " round " << round << ": model violates "
                              << (truth ? "" : "!") << ExprPool::ToString(a);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLiteralSets, TheoryFuzzTest, ::testing::Range<uint64_t>(1, 401));

// ---------------------------------------------------------------------------
// Real queries: every attached path of the 38 units, its path condition and
// each prefix with the next conjunct negated, to a production solver (warm
// across the unit's paths) and to the decide-only search over the reference.
// ---------------------------------------------------------------------------

class PlatformQueriesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto loaded = platform::Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }
  static platform::Platform* platform_;
};

platform::Platform* PlatformQueriesTest::platform_ = nullptr;

TEST_F(PlatformQueriesTest, AttachedPathQueriesAgreeWithTheReference) {
  int paths = 0;
  int queries = 0;
  int unsat = 0;
  for (const ast::FunctionDecl* gen : platform_->module().Generators()) {
    StatusOr<meta::MetaStub> stub = platform_->MakeMetaStub(gen->name);
    ASSERT_TRUE(stub.ok()) << stub.status().message();
    meta::MetaExecutor executor(&platform_->module(), &platform_->externs());
    std::unique_ptr<Solver> solver;
    executor.set_attached_path_hook([&](exec::EvalContext& ctx) {
      ++paths;
      if (solver == nullptr) {
        solver = std::make_unique<Solver>();
      }
      const std::vector<ExprRef> pc = ctx.path_condition();
      std::vector<std::vector<ExprRef>> asks = {pc};
      for (size_t k = 0; k < pc.size(); ++k) {
        std::vector<ExprRef> q(pc.begin(), pc.begin() + static_cast<std::ptrdiff_t>(k));
        q.push_back(ctx.pool().Not(pc[k]));
        asks.push_back(std::move(q));
      }
      for (const auto& q : asks) {
        ++queries;
        Verdict got = solver->Solve(q, /*want_model=*/false).verdict;
        Verdict want = DecideOnlySolve(q).verdict;
        EXPECT_EQ(got, want) << gen->name << " path " << paths;
        unsat += want == Verdict::kUnsat ? 1 : 0;
      }
    });
    meta::MetaResult result = executor.Run(stub.value());
    EXPECT_FALSE(result.inconclusive) << gen->name;
  }
  EXPECT_EQ(paths, 389);
  EXPECT_GT(queries, paths);
  EXPECT_GT(unsat, 0);
}

// The lemmas stay short: explanations, not whole trails. Over the 38 units
// (no solver cache, so every query is searched) there are enough lemmas to
// mean something, and they average at most five literals. A lemma that fell
// back to every assigned atom would average about eighteen.
TEST_F(PlatformQueriesTest, TheoryLemmasAreShort) {
  int64_t lemmas = 0;
  int64_t literals = 0;
  for (const ast::FunctionDecl* gen : platform_->module().Generators()) {
    StatusOr<meta::MetaStub> stub = platform_->MakeMetaStub(gen->name);
    ASSERT_TRUE(stub.ok()) << stub.status().message();
    meta::MetaExecutor executor(&platform_->module(), &platform_->externs());
    meta::MetaResult result = executor.Run(stub.value());
    lemmas += result.solver_theory_conflicts;
    literals += result.solver_lemma_literals;
  }
  ASSERT_GE(lemmas, 50);
  EXPECT_LE(static_cast<double>(literals) / static_cast<double>(lemmas), 5.0)
      << literals << " literals over " << lemmas << " lemmas";
}

}  // namespace
}  // namespace icarus::sym

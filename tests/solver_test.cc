#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sym/expr.h"
#include "src/sym/solver.h"
#include "src/sym/solver_cache.h"
#include "tests/decide_only_oracle.h"

namespace icarus::sym {
namespace {

class SolverTest : public ::testing::Test {
 protected:
  Verdict Check(const std::vector<ExprRef>& conjuncts) {
    Solver solver;
    last_ = solver.Solve(conjuncts);
    return last_.verdict;
  }
  ExprPool pool_;
  SolveResult last_;
};

TEST_F(SolverTest, TrivialSatUnsat) {
  EXPECT_EQ(Check({pool_.True()}), Verdict::kSat);
  EXPECT_EQ(Check({pool_.False()}), Verdict::kUnsat);
  EXPECT_EQ(Check({}), Verdict::kSat);
}

TEST_F(SolverTest, PropositionalContradiction) {
  ExprRef p = pool_.Var("p", Sort::kBool);
  EXPECT_EQ(Check({p, pool_.Not(p)}), Verdict::kUnsat);
  EXPECT_EQ(Check({pool_.Or(p, pool_.Not(p))}), Verdict::kSat);
}

TEST_F(SolverTest, GuardAssertPairIsSameAtom) {
  // The common verifier query: path condition assumes isObject(v); the
  // assertion requires isObject(v). Hash-consing makes them one atom.
  ExprRef v = pool_.Var("value", Sort::kTerm);
  ExprRef tag = pool_.App("typeTag", {v}, Sort::kInt);
  ExprRef is_obj = pool_.Eq(tag, pool_.IntConst(7));
  EXPECT_EQ(Check({is_obj, pool_.Not(is_obj)}), Verdict::kUnsat);
}

TEST_F(SolverTest, EqualityTransitivity) {
  ExprRef a = pool_.Var("a", Sort::kTerm);
  ExprRef b = pool_.Var("b", Sort::kTerm);
  ExprRef c = pool_.Var("c", Sort::kTerm);
  EXPECT_EQ(Check({pool_.Eq(a, b), pool_.Eq(b, c), pool_.Ne(a, c)}), Verdict::kUnsat);
  EXPECT_EQ(Check({pool_.Eq(a, b), pool_.Ne(b, c)}), Verdict::kSat);
}

TEST_F(SolverTest, UninterpretedFunctionCongruence) {
  // shapeOf(o) == s  ∧  numFixedSlots(s) == 4  ⟹  numFixedSlots(shapeOf(o)) == 4.
  ExprRef o = pool_.Var("o", Sort::kTerm);
  ExprRef s = pool_.Var("s", Sort::kTerm);
  ExprRef shape_o = pool_.App("shapeOf", {o}, Sort::kTerm);
  ExprRef n_s = pool_.App("numFixedSlots", {s}, Sort::kInt);
  ExprRef n_shape_o = pool_.App("numFixedSlots", {shape_o}, Sort::kInt);
  // The TypedArray fixed-slot bound: slot 3 must be < numFixedSlots.
  ExprRef safe = pool_.Lt(pool_.IntConst(3), n_shape_o);
  // Guarded (GuardShape present): UNSAT, i.e. verified.
  EXPECT_EQ(Check({pool_.Eq(shape_o, s), pool_.Eq(n_s, pool_.IntConst(4)), pool_.Not(safe)}),
            Verdict::kUnsat);
  // Unguarded (megamorphic bug): SAT — a counterexample exists.
  EXPECT_EQ(Check({pool_.Eq(n_s, pool_.IntConst(4)), pool_.Not(safe)}), Verdict::kSat);
}

TEST_F(SolverTest, DistinctConstantsConflict) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  EXPECT_EQ(Check({pool_.Eq(x, pool_.IntConst(1)), pool_.Eq(x, pool_.IntConst(2))}),
            Verdict::kUnsat);
}

TEST_F(SolverTest, IntervalReasoning) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  // x < y ∧ y < x is UNSAT.
  EXPECT_EQ(Check({pool_.Lt(x, y), pool_.Lt(y, x)}), Verdict::kUnsat);
  // x < 5 ∧ x > 10 is UNSAT.
  EXPECT_EQ(Check({pool_.Lt(x, pool_.IntConst(5)), pool_.Gt(x, pool_.IntConst(10))}),
            Verdict::kUnsat);
  // 0 <= x ∧ x < 10 is SAT.
  EXPECT_EQ(Check({pool_.Le(pool_.IntConst(0), x), pool_.Lt(x, pool_.IntConst(10))}),
            Verdict::kSat);
  // Strictness chain: x < y ∧ y < z ∧ z < x+2 is UNSAT over ints... actually
  // x<y<z implies z >= x+2, and z < x+2 conflicts.
  ExprRef z = pool_.Var("z", Sort::kInt);
  EXPECT_EQ(Check({pool_.Lt(x, y), pool_.Lt(y, z),
                   pool_.Lt(z, pool_.Add(x, pool_.IntConst(2)))}),
            Verdict::kUnsat);
}

TEST_F(SolverTest, ArithmeticStructure) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef sum = pool_.Add(x, pool_.IntConst(1));
  // x == 3 ∧ x+1 != 4 is UNSAT (via interval propagation through kAdd).
  EXPECT_EQ(Check({pool_.Eq(x, pool_.IntConst(3)), pool_.Ne(sum, pool_.IntConst(4))}),
            Verdict::kUnsat);
  EXPECT_EQ(Check({pool_.Eq(x, pool_.IntConst(3)), pool_.Eq(sum, pool_.IntConst(4))}),
            Verdict::kSat);
}

TEST_F(SolverTest, Int32OverflowGuardPattern) {
  // Matches the Int32 Add stub: inputs in int32 range, the overflow branch
  // assumed not taken, assert the result is still in int32 range.
  ExprRef a = pool_.Var("a", Sort::kInt);
  ExprRef b = pool_.Var("b", Sort::kInt);
  ExprRef lo = pool_.IntConst(-2147483648LL);
  ExprRef hi = pool_.IntConst(2147483647LL);
  ExprRef sum = pool_.Add(a, b);
  std::vector<ExprRef> pc = {
      pool_.Le(lo, a), pool_.Le(a, hi), pool_.Le(lo, b), pool_.Le(b, hi),
      // Overflow guard passed:
      pool_.Le(lo, sum), pool_.Le(sum, hi),
  };
  // Assertion: sum in range. Negated → UNSAT.
  auto with_not = pc;
  with_not.push_back(pool_.Not(pool_.And(pool_.Le(lo, sum), pool_.Le(sum, hi))));
  EXPECT_EQ(Check(with_not), Verdict::kUnsat);
  // Without the guard, the negated assertion is satisfiable.
  std::vector<ExprRef> unguarded = {
      pool_.Le(lo, a), pool_.Le(a, hi), pool_.Le(lo, b), pool_.Le(b, hi),
      pool_.Not(pool_.And(pool_.Le(lo, sum), pool_.Le(sum, hi)))};
  EXPECT_EQ(Check(unguarded), Verdict::kSat);
}

TEST_F(SolverTest, BoolPredicateCongruence) {
  ExprRef x = pool_.Var("x", Sort::kTerm);
  ExprRef y = pool_.Var("y", Sort::kTerm);
  ExprRef px = pool_.App("isNative", {x}, Sort::kBool);
  ExprRef py = pool_.App("isNative", {y}, Sort::kBool);
  EXPECT_EQ(Check({pool_.Eq(x, y), px, pool_.Not(py)}), Verdict::kUnsat);
  EXPECT_EQ(Check({px, pool_.Not(py)}), Verdict::kSat);
}

TEST_F(SolverTest, ModelExtraction) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  ASSERT_EQ(Check({pool_.Eq(x, pool_.IntConst(7)), pool_.Lt(x, y)}), Verdict::kSat);
  int64_t xv = 0;
  int64_t yv = 0;
  ASSERT_TRUE(last_.model.Lookup(x, &xv));
  ASSERT_TRUE(last_.model.Lookup(y, &yv));
  EXPECT_EQ(xv, 7);
  EXPECT_GT(yv, xv);
}

TEST_F(SolverTest, ModelRespectsDisequalities) {
  ExprRef a = pool_.Var("a", Sort::kTerm);
  ExprRef b = pool_.Var("b", Sort::kTerm);
  ASSERT_EQ(Check({pool_.Ne(a, b)}), Verdict::kSat);
  int64_t av = 0;
  int64_t bv = 0;
  ASSERT_TRUE(last_.model.Lookup(a, &av));
  ASSERT_TRUE(last_.model.Lookup(b, &bv));
  EXPECT_NE(av, bv);
}

TEST_F(SolverTest, DeepNesting) {
  // f(f(f(x))) == x ∧ f(x) == x ⟹ f(f(f(x))) == x; negation UNSAT.
  ExprRef x = pool_.Var("x", Sort::kTerm);
  ExprRef fx = pool_.App("f", {x}, Sort::kTerm);
  ExprRef ffx = pool_.App("f", {fx}, Sort::kTerm);
  ExprRef fffx = pool_.App("f", {ffx}, Sort::kTerm);
  EXPECT_EQ(Check({pool_.Eq(fx, x), pool_.Ne(fffx, x)}), Verdict::kUnsat);
}

// ---------------------------------------------------------------------------
// CDCL-specific coverage: warm-solver soundness across queries, clause
// learning and backjumping (docs/SOLVER.md documents the contract).
// ---------------------------------------------------------------------------

TEST_F(SolverTest, LearnedClausesPersistAcrossQueriesSoundly) {
  // A persistent solver answers repeated and *sibling* queries after learning
  // from earlier ones; every verdict must match a fresh solver's. This is the
  // warm-solver configuration the meta-executor runs (one instance per
  // generator, all paths). The last two rows pin that an UNSAT answer leaves
  // nothing behind (assumptions are decisions, never clauses): after
  // {p, ¬p}, the satisfiable {¬p} must still come back SAT.
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  ExprRef p = pool_.Var("p", Sort::kBool);
  ExprRef f_x = pool_.App("f", {x}, Sort::kInt);
  ExprRef f_y = pool_.App("f", {y}, Sort::kInt);
  std::vector<std::vector<ExprRef>> queries = {
      {pool_.Lt(x, y), pool_.Lt(y, x)},                              // UNSAT
      {pool_.Lt(x, y), pool_.Lt(y, pool_.Add(x, pool_.IntConst(2)))},// SAT
      {pool_.Eq(x, y), pool_.Ne(f_x, f_y)},                          // UNSAT
      {pool_.Lt(x, y), pool_.Lt(y, x)},                              // repeat
      {pool_.Eq(x, y), pool_.Eq(f_x, f_y)},                          // SAT
      {p, pool_.Not(p)},                                             // UNSAT
      {pool_.Not(p)},                                                // SAT
  };
  Solver warm;
  for (const auto& q : queries) {
    Verdict fresh = Solver().Solve(q).verdict;
    EXPECT_EQ(warm.Solve(q).verdict, fresh);
  }
  EXPECT_GT(warm.stats().queries, 0);
}

TEST_F(SolverTest, BackjumpRefutesBranchingTheoryConflicts) {
  // Every assignment of the boolean selectors p,q forces the contradictory
  // pair x<y ∧ y<x, so refutation requires the search to branch, hit theory
  // conflicts, learn lemmas, and backjump across decision levels — the CDCL
  // loop end to end. Dropping the last row opens exactly one escape
  // (p ∧ q ∧ x<y), which the correctness half checks.
  ExprRef p = pool_.Var("sel_p", Sort::kBool);
  ExprRef q = pool_.Var("sel_q", Sort::kBool);
  ExprRef x = pool_.Var("bx", Sort::kInt);
  ExprRef y = pool_.Var("by", Sort::kInt);
  ExprRef xy = pool_.Lt(x, y);
  ExprRef yx = pool_.Lt(y, x);
  std::vector<ExprRef> cs;
  for (ExprRef pl : {p, pool_.Not(p)}) {
    for (ExprRef ql : {q, pool_.Not(q)}) {
      cs.push_back(pool_.Or(pl, pool_.Or(ql, xy)));
      cs.push_back(pool_.Or(pl, pool_.Or(ql, yx)));
    }
  }
  Solver solver;
  EXPECT_EQ(solver.Solve(cs).verdict, Verdict::kUnsat);
  // The refutation must have actually learned something (CDCL engaged).
  EXPECT_GT(solver.stats().learned_clauses, 0);
  cs.pop_back();  // Drop {¬p ∨ ¬q ∨ y<x}: p ∧ q ∧ x<y now satisfies.
  SolveResult r = solver.Solve(cs);
  ASSERT_EQ(r.verdict, Verdict::kSat);
  int64_t xv = 0;
  int64_t yv = 0;
  ASSERT_TRUE(r.model.Lookup(x, &xv));
  ASSERT_TRUE(r.model.Lookup(y, &yv));
  EXPECT_LT(xv, yv);
}

TEST_F(SolverTest, ModelSatisfiesEveryConjunct) {
  // Learned-clause soundness, checked from the SAT side: any model produced
  // after warm-up must still evaluate every conjunct of the *current* query
  // to true (a clause wrongly retained from a popped scope or an unsound
  // lemma would steer the model off the query).
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  Solver solver;
  // Warm up with a contradictory sibling so clauses get learned.
  EXPECT_EQ(solver.Solve({pool_.Lt(x, y), pool_.Lt(y, x)}).verdict, Verdict::kUnsat);
  SolveResult r = solver.Solve({pool_.Lt(x, y), pool_.Le(pool_.IntConst(10), x),
                                pool_.Le(y, pool_.IntConst(12))});
  ASSERT_EQ(r.verdict, Verdict::kSat);
  int64_t xv = 0;
  int64_t yv = 0;
  ASSERT_TRUE(r.model.Lookup(x, &xv));
  ASSERT_TRUE(r.model.Lookup(y, &yv));
  EXPECT_LT(xv, yv);
  EXPECT_GE(xv, 10);
  EXPECT_LE(yv, 12);
}

TEST_F(SolverTest, WarmSolverStaysSoundAfterAssumptionConflict) {
  // Query A ends at an assumption that is already false when it is placed.
  // That exit must leave the warm solver as it found it: a stale mark there
  // (a seen_ mark once was) would make B's conflict analysis learn a clause
  // the database does not imply, and B — satisfiable — would come back UNSAT
  // on the warm solver.
  ExprRef p2 = pool_.Var("p2", Sort::kBool);
  ExprRef i0 = pool_.Var("i0", Sort::kInt);
  ExprRef i1 = pool_.Var("i1", Sort::kInt);
  ExprRef i2 = pool_.Var("i2", Sort::kInt);
  ExprRef i0_is_3 = pool_.Eq(i0, pool_.IntConst(3));
  std::vector<ExprRef> a = {pool_.Eq(i1, pool_.IntConst(1)), pool_.Not(pool_.Lt(i2, i0)),
                            i0_is_3, pool_.Or(p2, pool_.Eq(i0, pool_.IntConst(0))),
                            pool_.Not(p2)};
  std::vector<ExprRef> b = {pool_.Not(pool_.Lt(i2, i1)),
                            pool_.Or(pool_.Lt(i1, i0), pool_.Not(i0_is_3)),
                            pool_.Eq(i0, pool_.IntConst(1))};
  Solver warm;
  EXPECT_EQ(warm.Solve(a).verdict, Verdict::kUnsat);
  EXPECT_EQ(warm.Solve(b).verdict, Verdict::kSat);
  EXPECT_EQ(Solver().Solve(b).verdict, Verdict::kSat);
}

// The kept-level paths of the core, one query stream each. A new conjunct's
// Tseitin clause can be unit under the levels the query keeps: the clause
// (¬v ∨ ¬p ∨ ¬q) of v = ¬p ∨ ¬q is, once p and q are placed, and so is
// (v ∨ ¬p ∨ ¬q) of v = p ∧ q. (No new Tseitin clause can be false there: each
// has the new node's own variable, unassigned.) A query can also end on an
// already-false assumption and be followed by queries that share part of
// its prefix, the shape WarmSolverStaysSoundAfterAssumptionConflict pins
// from scratch. Every answer is checked against a fresh solver.
TEST_F(SolverTest, KeptLevelsStaySound) {
  ExprRef p = pool_.Var("p", Sort::kBool);
  ExprRef q = pool_.Var("q", Sort::kBool);
  ExprRef r = pool_.Var("r", Sort::kBool);
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  ExprRef xy = pool_.Lt(x, y);
  const std::vector<std::vector<ExprRef>> streams[] = {
      {{p, q},
       {p, q, pool_.Or(pool_.Not(p), pool_.Not(q))},  // Unit ¬v: unsat.
       {p, q, pool_.And(p, q)},                       // Unit v: sat.
       {p, q, pool_.And(p, q), xy, pool_.Lt(y, x)},
       {p, q, pool_.And(p, q), xy}},
      {{p, pool_.Or(pool_.Not(p), q), pool_.Not(q), r},  // ¬q is false when placed.
       {p, pool_.Or(pool_.Not(p), q), r, xy},
       {p, pool_.Not(q), xy},
       {p, pool_.Or(pool_.Not(p), q), pool_.Not(q)}},
  };
  for (const auto& stream : streams) {
    Solver warm;
    for (const std::vector<ExprRef>& query : stream) {
      EXPECT_EQ(warm.Solve(query).verdict, Solver().Solve(query).verdict);
    }
    EXPECT_GT(warm.stats().levels_kept, 0);
  }
}

TEST_F(SolverTest, DecideOnlyAblationEngineAgrees) {
  // The decide-only search is the differential oracle, so pin it on a couple
  // of fixed formulas too.
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  std::vector<std::vector<ExprRef>> queries = {
      {pool_.Lt(x, y), pool_.Lt(y, x)},
      {pool_.Le(pool_.IntConst(0), x), pool_.Lt(x, pool_.IntConst(3))},
  };
  for (const auto& q : queries) {
    Solver cdcl;
    EXPECT_EQ(cdcl.Solve(q).verdict, DecideOnlySolve(q).verdict);
  }
  // The oracle decides by search alone: branching and full theory checks.
  SolverStats stats;
  EXPECT_EQ(DecideOnlySolve({pool_.Lt(x, y), pool_.Lt(y, x)}, &stats).verdict, Verdict::kUnsat);
  EXPECT_GT(stats.decisions, 0);
  EXPECT_GT(stats.theory_checks, 0);
}

// ---------------------------------------------------------------------------
// Differential fuzz: random formulas, CDCL vs the decide-only oracle. The
// formulas mix propositional structure with a small theory vocabulary so the
// lazy-SMT loop (lemma learning from theory conflicts) is exercised, not just
// the boolean core. Deterministic PRNG: failures reproduce by seed. 400 seeds,
// because the first 8 alone missed a warm-state soundness bug (the one
// WarmSolverStaysSoundAfterAssumptionConflict pins) that seeds 73, 110, 171,
// 298 and 379 catch.
// ---------------------------------------------------------------------------

class SolverFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverFuzzTest, CdclMatchesDecideOnlyOracle) {
  uint64_t state = GetParam() * 0x9E3779B97F4A7C15ULL + 1;
  auto rnd = [&state](int n) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<int>(state % static_cast<uint64_t>(n));
  };
  ExprPool pool;
  // Vocabulary: bools p0..p2, ints i0..i2, constants 0..3.
  std::vector<ExprRef> bools;
  std::vector<ExprRef> ints;
  for (int i = 0; i < 3; ++i) {
    bools.push_back(pool.Var("p" + std::to_string(i), Sort::kBool));
    ints.push_back(pool.Var("i" + std::to_string(i), Sort::kInt));
  }
  auto atom = [&]() -> ExprRef {
    switch (rnd(4)) {
      case 0:
        return bools[static_cast<size_t>(rnd(3))];
      case 1:
        return pool.Lt(ints[static_cast<size_t>(rnd(3))], ints[static_cast<size_t>(rnd(3))]);
      case 2:
        return pool.Eq(ints[static_cast<size_t>(rnd(3))], pool.IntConst(rnd(4)));
      default:
        return pool.Le(ints[static_cast<size_t>(rnd(3))],
                       pool.Add(ints[static_cast<size_t>(rnd(3))], pool.IntConst(rnd(3))));
    }
  };
  auto literal = [&]() {
    ExprRef a = atom();
    return rnd(2) == 0 ? a : pool.Not(a);
  };
  Solver cdcl;  // Persistent across the whole sweep: warm-state soundness.
  for (int round = 0; round < 24; ++round) {
    // Random CNF-ish conjunction: 2-6 conjuncts, each a literal or a small
    // disjunction of literals.
    std::vector<ExprRef> conjuncts;
    int n = 2 + rnd(5);
    for (int i = 0; i < n; ++i) {
      ExprRef c = literal();
      if (rnd(3) == 0) {
        c = pool.Or(c, literal());
      }
      if (rnd(6) == 0) {
        c = pool.Or(c, literal());
      }
      conjuncts.push_back(c);
    }
    Verdict expect = DecideOnlySolve(conjuncts).verdict;  // Fresh + learning-free.
    SolveResult got = cdcl.Solve(conjuncts);
    ASSERT_EQ(got.verdict, expect)
        << "divergence at seed " << GetParam() << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFormulas, SolverFuzzTest, ::testing::Range<uint64_t>(1, 401));

// Prefix-sharing query streams on one warm solver: the shape the
// meta-executor asks (a path condition grows by a few conjuncts, an
// assertion is checked by pushing its negation, popping it and pushing it,
// and a backtrack returns to a shorter prefix), which SolverFuzzTest's
// independent conjunctions barely exercise. Every answer equals a fresh
// solver's and the decide-only oracle's, every model's atom values satisfy
// every conjunct (and, within difference logic, its variable values satisfy
// every atom), and a solver with a cache keys each query exactly as
// FingerprintQuery does: the cache then holds one entry per distinct
// fingerprint asked, under that fingerprint.
class SolverStreamTest : public ::testing::TestWithParam<uint64_t> {};

// The truth of `e` under a model's atom values; false when an atom has none.
bool Holds(const std::unordered_map<ExprRef, bool>& atoms, ExprRef e, bool* known) {
  switch (e->kind) {
    case Kind::kConstBool:
      return e->value != 0;
    case Kind::kNot:
      return !Holds(atoms, e->args[0], known);
    case Kind::kAnd:
      return Holds(atoms, e->args[0], known) && Holds(atoms, e->args[1], known);
    case Kind::kOr:
      return Holds(atoms, e->args[0], known) || Holds(atoms, e->args[1], known);
    default: {
      auto it = atoms.find(e);
      if (it == atoms.end()) {
        *known = false;
        return false;
      }
      return it->second;
    }
  }
}

// The value of an integer term of the fuzz vocabulary under the witnesses.
bool IntValue(const Model& m, ExprRef t, int64_t* out) {
  switch (t->kind) {
    case Kind::kConstInt:
      *out = t->value;
      return true;
    case Kind::kVar:
      return m.LookupWitness(t->name, out);
    case Kind::kAdd: {
      int64_t a = 0;
      int64_t b = 0;
      if (!IntValue(m, t->args[0], &a) || !IntValue(m, t->args[1], &b)) {
        return false;
      }
      *out = a + b;
      return true;
    }
    default:
      return false;
  }
}

TEST_P(SolverStreamTest, PrefixSharingQueriesMatchFreshSolvers) {
  uint64_t state = GetParam() * 0x9E3779B97F4A7C15ULL + 7;
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
    switch (rnd(4)) {
      case 0:
        return bools[static_cast<size_t>(rnd(3))];
      case 1:
        return pool.Lt(ints[static_cast<size_t>(rnd(3))], ints[static_cast<size_t>(rnd(3))]);
      case 2:
        return pool.Eq(ints[static_cast<size_t>(rnd(3))], pool.IntConst(rnd(4)));
      default:
        return pool.Le(ints[static_cast<size_t>(rnd(3))],
                       pool.Add(ints[static_cast<size_t>(rnd(3))], pool.IntConst(rnd(3))));
    }
  };
  auto literal = [&]() {
    ExprRef a = atom();
    return rnd(2) == 0 ? a : pool.Not(a);
  };
  auto conjunct = [&]() {
    ExprRef c = literal();
    if (rnd(3) == 0) {
      c = pool.Or(c, literal());
    }
    return c;
  };
  Solver warm;
  SolverCache cache;
  Solver keyed;
  keyed.set_cache(&cache);
  std::set<std::pair<uint64_t, uint64_t>> fingerprints;
  int step = 0;
  auto ask = [&](const std::vector<ExprRef>& query) {
    ++step;
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " step " + std::to_string(step));
    SolveResult got = warm.Solve(query);
    ASSERT_EQ(got.verdict, Solver().Solve(query).verdict);
    ASSERT_EQ(got.verdict, DecideOnlySolve(query).verdict);
    if (got.verdict == Verdict::kSat) {
      std::unordered_map<ExprRef, bool> atoms(got.model.atoms.begin(), got.model.atoms.end());
      for (ExprRef c : query) {
        bool known = true;
        EXPECT_TRUE(Holds(atoms, c, &known)) << "model violates " << ExprPool::ToString(c);
        EXPECT_TRUE(known) << "unassigned atom under " << ExprPool::ToString(c);
      }
      for (const auto& [a, truth] : got.model.atoms) {
        int64_t lhs = 0;
        int64_t rhs = 0;
        if (a->kind == Kind::kVar || !IntValue(got.model, a->args[0], &lhs) ||
            !IntValue(got.model, a->args[1], &rhs)) {
          continue;
        }
        bool holds = a->kind == Kind::kEq   ? lhs == rhs
                     : a->kind == Kind::kLt ? lhs < rhs
                                            : lhs <= rhs;
        EXPECT_EQ(holds, truth) << "values violate " << (truth ? "" : "!") << ExprPool::ToString(a);
      }
    }
    ASSERT_EQ(keyed.Solve(query, /*want_model=*/false).verdict, got.verdict);
    const QueryKey key = FingerprintQuery(query);
    fingerprints.emplace(key.lo, key.hi);
    ASSERT_TRUE(cache.Lookup(key).has_value());
    ASSERT_EQ(cache.size(), fingerprints.size());
  };
  std::vector<ExprRef> query;
  for (int round = 0; round < 12; ++round) {
    for (int k = 1 + rnd(3); k > 0; --k) {
      query.push_back(conjunct());
    }
    ask(query);
    ExprRef a = literal();
    query.push_back(pool.Not(a));
    ask(query);
    query.back() = a;
    ask(query);
    if (rnd(2) == 0) {
      query.resize(static_cast<size_t>(rnd(static_cast<int>(query.size()))));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(QueryStreams, SolverStreamTest, ::testing::Range<uint64_t>(1, 401));

// Parameterized sweep: push-pop style random clauses keep the solver total
// (either SAT with a model or UNSAT) across formula shapes.
class SolverSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverSweepTest, ChainOfBoundsIsDecided) {
  ExprPool pool;
  int n = GetParam();
  // x0 < x1 < ... < xn ∧ xn < x0 + n  (UNSAT: needs at least n gaps).
  std::vector<ExprRef> vars;
  vars.reserve(static_cast<size_t>(n) + 1);
  for (int i = 0; i <= n; ++i) {
    vars.push_back(pool.Var("x" + std::to_string(i), Sort::kInt));
  }
  std::vector<ExprRef> cs;
  for (int i = 0; i < n; ++i) {
    cs.push_back(pool.Lt(vars[static_cast<size_t>(i)], vars[static_cast<size_t>(i) + 1]));
  }
  cs.push_back(pool.Lt(vars.back(), pool.Add(vars[0], pool.IntConst(n))));
  Solver solver;
  EXPECT_EQ(solver.Solve(cs).verdict, Verdict::kUnsat);
  // Relaxing the bound by one makes it SAT.
  cs.back() = pool.Lt(vars.back(), pool.Add(vars[0], pool.IntConst(n + 1)));
  Solver solver2;
  EXPECT_EQ(solver2.Solve(cs).verdict, Verdict::kSat);
}

INSTANTIATE_TEST_SUITE_P(Chains, SolverSweepTest, ::testing::Values(1, 2, 3, 5, 8, 12));

}  // namespace
}  // namespace icarus::sym

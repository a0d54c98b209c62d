// Solver-result cache tests: fingerprint canonicalization, cross-pool hits on
// structurally identical queries, no false hits across distinct queries,
// thread-safety under concurrent Solve() calls sharing one cache, and
// integrity under injected faults (a fault mid-insert must not poison the
// shard).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/support/check.h"
#include "src/support/failpoint.h"
#include "src/sym/expr.h"
#include "src/sym/solver.h"
#include "src/sym/solver_cache.h"

namespace icarus::sym {
namespace {

class SolverCacheTest : public ::testing::Test {
 protected:
  ExprPool pool_;
};

TEST_F(SolverCacheTest, FingerprintIsOrderInsensitive) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef y = pool_.Var("y", Sort::kInt);
  ExprRef a = pool_.Lt(x, y);
  ExprRef b = pool_.Eq(x, pool_.IntConst(3));
  ExprRef c = pool_.Le(y, pool_.IntConst(10));
  QueryKey k1 = FingerprintQuery({a, b, c});
  QueryKey k2 = FingerprintQuery({c, a, b});
  EXPECT_EQ(k1, k2);
}

TEST_F(SolverCacheTest, FingerprintIsDuplicateInsensitive) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef a = pool_.Lt(x, pool_.IntConst(5));
  ExprRef b = pool_.Eq(x, pool_.IntConst(1));
  EXPECT_EQ(FingerprintQuery({a, b}), FingerprintQuery({a, a, b, b, a}));
}

TEST_F(SolverCacheTest, FingerprintSeparatesDistinctQueries) {
  ExprRef x = pool_.Var("x", Sort::kInt);
  ExprRef lt = pool_.Lt(x, pool_.IntConst(5));
  ExprRef le = pool_.Le(x, pool_.IntConst(5));
  EXPECT_FALSE(FingerprintQuery({lt}) == FingerprintQuery({le}));
  // Subset vs superset.
  ExprRef e = pool_.Eq(x, pool_.IntConst(2));
  EXPECT_FALSE(FingerprintQuery({lt}) == FingerprintQuery({lt, e}));
}

TEST_F(SolverCacheTest, CanonicalHashAgreesAcrossPools) {
  // The same structural term built in two independent pools must carry the
  // same chash — that is the property the cache key relies on.
  ExprPool other;
  ExprRef e1 = pool_.Lt(pool_.Add(pool_.Var("n", Sort::kInt), pool_.IntConst(1)),
                        pool_.IntConst(100));
  ExprRef e2 = other.Lt(other.Add(other.Var("n", Sort::kInt), other.IntConst(1)),
                        other.IntConst(100));
  EXPECT_NE(e1, e2);  // Different pools, different node addresses.
  EXPECT_EQ(e1->chash, e2->chash);
  EXPECT_EQ(FingerprintQuery({e1}), FingerprintQuery({e2}));
}

TEST_F(SolverCacheTest, HitOnStructurallyIdenticalQueryFromAnotherPool) {
  SolverCache cache;

  // Solve in pool 1.
  Solver s1;
  s1.set_cache(&cache);
  ExprRef x1 = pool_.Var("x", Sort::kInt);
  std::vector<ExprRef> q1 = {pool_.Lt(x1, pool_.IntConst(10)),
                             pool_.Lt(pool_.IntConst(3), x1)};
  SolveResult r1 = s1.Solve(q1);
  EXPECT_EQ(r1.verdict, Verdict::kSat);
  EXPECT_EQ(s1.stats().cache_misses, 1);
  EXPECT_EQ(s1.stats().cache_hits, 0);

  // Re-solve the structurally identical query from a second pool: must be a
  // cache hit with the same verdict and zero additional solver decisions.
  ExprPool other;
  Solver s2;
  s2.set_cache(&cache);
  ExprRef x2 = other.Var("x", Sort::kInt);
  std::vector<ExprRef> q2 = {other.Lt(x2, other.IntConst(10)),
                             other.Lt(other.IntConst(3), x2)};
  SolveResult r2 = s2.Solve(q2);
  EXPECT_EQ(r2.verdict, Verdict::kSat);
  EXPECT_EQ(s2.stats().cache_hits, 1);
  EXPECT_EQ(s2.stats().cache_misses, 0);
  EXPECT_EQ(s2.stats().decisions, 0);
  // Cached SAT entries carry the rendered model text.
  EXPECT_EQ(r2.model.ToString(), r1.model.ToString());

  SolverCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_GT(stats.HitRate(), 0.0);
}

TEST_F(SolverCacheTest, UnsatVerdictsAreCachedToo) {
  SolverCache cache;
  Solver s1;
  s1.set_cache(&cache);
  ExprRef x = pool_.Var("x", Sort::kInt);
  std::vector<ExprRef> q = {pool_.Lt(x, pool_.IntConst(0)),
                            pool_.Lt(pool_.IntConst(0), x)};
  EXPECT_EQ(s1.Solve(q).verdict, Verdict::kUnsat);

  Solver s2;
  s2.set_cache(&cache);
  EXPECT_EQ(s2.Solve(q).verdict, Verdict::kUnsat);
  EXPECT_EQ(s2.stats().cache_hits, 1);
}

TEST_F(SolverCacheTest, NoFalseHitAcrossDistinctQueries) {
  SolverCache cache;
  Solver solver;
  solver.set_cache(&cache);
  ExprRef x = pool_.Var("x", Sort::kInt);

  // A SAT query, then a structurally different UNSAT query: the second must
  // not be served from the first's entry.
  EXPECT_EQ(solver.Solve({pool_.Lt(x, pool_.IntConst(5))}).verdict, Verdict::kSat);
  EXPECT_EQ(solver
                .Solve({pool_.Lt(x, pool_.IntConst(5)),
                        pool_.Lt(pool_.IntConst(7), x)})
                .verdict,
            Verdict::kUnsat);
  EXPECT_EQ(solver.stats().cache_hits, 0);
  EXPECT_EQ(solver.stats().cache_misses, 2);
}

TEST_F(SolverCacheTest, ModelFreeEntryUpgradedOnDemand) {
  // Feasibility checks cache verdict-only entries (want_model=false); a later
  // model-needing lookup of the same query re-solves and upgrades the entry.
  SolverCache cache;
  ExprRef x = pool_.Var("x", Sort::kInt);
  std::vector<ExprRef> query = {pool_.Lt(x, pool_.IntConst(5))};

  Solver s1;
  s1.set_cache(&cache);
  EXPECT_EQ(s1.Solve(query, /*want_model=*/false).verdict, Verdict::kSat);

  // Verdict-only consumers hit the model-free entry.
  Solver s2;
  s2.set_cache(&cache);
  EXPECT_EQ(s2.Solve(query, /*want_model=*/false).verdict, Verdict::kSat);
  EXPECT_EQ(s2.stats().cache_hits, 1);

  // A model-needing consumer misses, re-solves, and gets a real model...
  Solver s3;
  s3.set_cache(&cache);
  SolveResult r3 = s3.Solve(query, /*want_model=*/true);
  EXPECT_EQ(r3.verdict, Verdict::kSat);
  EXPECT_EQ(s3.stats().cache_misses, 1);
  EXPECT_FALSE(r3.model.ToString().empty());

  // ...and the upgraded entry now serves model-needing hits.
  Solver s4;
  s4.set_cache(&cache);
  SolveResult r4 = s4.Solve(query, /*want_model=*/true);
  EXPECT_EQ(s4.stats().cache_hits, 1);
  EXPECT_EQ(r4.model.ToString(), r3.model.ToString());
}

TEST_F(SolverCacheTest, UnknownIsNeverCached) {
  // A give-up is a fact about the budget, not the query: only decisive
  // answers enter the cache, so no later solver can be served a stale one.
  SolverCache cache;
  // A budget of 0 decisions forces kUnknown on any query that needs a split.
  Solver::Limits tiny;
  tiny.max_decisions = 0;
  Solver starved(tiny);
  starved.set_cache(&cache);

  ExprRef p = pool_.Var("p", Sort::kBool);
  ExprRef q = pool_.Var("q", Sort::kBool);
  std::vector<ExprRef> query = {pool_.Or(p, q), pool_.Or(pool_.Not(p), q)};
  ASSERT_EQ(starved.Solve(query).verdict, Verdict::kUnknown);
  EXPECT_EQ(starved.stats().budget_exhausted, 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Snapshot().misses, 1);
  EXPECT_EQ(cache.Snapshot().insertions, 0);

  // A solver with the default budget on the same cache misses, answers
  // decisively, and that answer is inserted.
  Solver solver;
  solver.set_cache(&cache);
  EXPECT_EQ(solver.Solve(query).verdict, Verdict::kSat);
  EXPECT_EQ(solver.stats().cache_misses, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Snapshot().insertions, 1);

  // A kUnknown entry inserted directly is dropped too.
  ExprRef x = pool_.Var("x", Sort::kInt);
  SolverCache::Entry unknown;
  unknown.verdict = Verdict::kUnknown;
  cache.Insert(FingerprintQuery({pool_.Lt(x, pool_.IntConst(5))}), unknown);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(SolverCacheTest, InjectedInsertFaultDoesNotPoisonShard) {
  failpoint::DisarmAll();
  SolverCache cache;
  ExprRef x = pool_.Var("x", Sort::kInt);
  QueryKey key = FingerprintQuery({pool_.Lt(x, pool_.IntConst(5))});
  SolverCache::Entry entry;
  entry.verdict = Verdict::kSat;

  // The fault fires after the shard lock is taken; stack unwinding must
  // release the lock and leave the map untouched.
  ASSERT_TRUE(failpoint::Arm(std::string("at=") + failpoint::kCacheInsert + ":1").ok());
  EXPECT_THROW(cache.Insert(key, entry), InternalError);
  failpoint::DisarmAll();

  // Not poisoned: no torn entry is resident, the shard lock is free, and the
  // cache accepts and serves the entry normally afterwards.
  EXPECT_FALSE(cache.Lookup(key).has_value());
  EXPECT_EQ(cache.size(), 0u);
  cache.Insert(key, entry);
  std::optional<SolverCache::Entry> got = cache.Lookup(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->verdict, Verdict::kSat);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(SolverCacheTest, InjectedLookupFaultIsRecoverable) {
  failpoint::DisarmAll();
  SolverCache cache;
  ExprRef x = pool_.Var("x", Sort::kInt);
  QueryKey key = FingerprintQuery({pool_.Lt(x, pool_.IntConst(5))});
  SolverCache::Entry entry;
  entry.verdict = Verdict::kUnsat;
  cache.Insert(key, entry);

  ASSERT_TRUE(failpoint::Arm(std::string("at=") + failpoint::kCacheLookup + ":1").ok());
  EXPECT_THROW(cache.Lookup(key), InternalError);
  failpoint::DisarmAll();

  std::optional<SolverCache::Entry> got = cache.Lookup(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->verdict, Verdict::kUnsat);
}

TEST_F(SolverCacheTest, ThreadSafeUnderConcurrentSolves) {
  SolverCache cache;
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 200;
  std::atomic<int> wrong{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &wrong]() {
      // Each thread owns its pool and solver; only the cache is shared.
      ExprPool pool;
      Solver solver;
      solver.set_cache(&cache);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // 50 distinct queries, each hit by every thread 4 times: half are
        // satisfiable (x < k for k >= 1), half unsatisfiable (x < k && k < x).
        int k = i % 50;
        ExprRef x = pool.Var("x", Sort::kInt);
        ExprRef bound = pool.IntConst(k + 1);
        std::vector<ExprRef> query = {pool.Lt(x, bound)};
        bool expect_sat = (i % 2 == 0);
        if (!expect_sat) query.push_back(pool.Lt(bound, x));
        Verdict got = solver.Solve(query).verdict;
        Verdict want = expect_sat ? Verdict::kSat : Verdict::kUnsat;
        if (got != want) wrong.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0);
  SolverCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.lookups(), kThreads * kQueriesPerThread);
  // 100 distinct queries total; everything beyond the first solve of each is
  // eligible to hit. Concurrent first-solves may race (both miss), so only
  // assert a healthy lower bound.
  EXPECT_GE(stats.hits, kThreads * kQueriesPerThread / 2);
  EXPECT_LE(cache.size(), 100u + kThreads);
}

}  // namespace
}  // namespace icarus::sym
